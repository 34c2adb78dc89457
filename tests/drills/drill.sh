#!/usr/bin/env bash
# Usage: drill.sh <drill> <build dir> <source dir>; ctest runs each drill
# as drill.<name> (`ctest -L drill`). A drill drives the built binaries end
# to end in a fresh <build dir>/tests/drills/<name>, where it leaves its
# logs, reports and stores. Any failing command fails it, naming the line.
set -eEuo pipefail

name=$1 build=$(realpath "$2") src=$(realpath "$3")
bin=$build/examples bench=$build/bench
exec 3>&2  # The drill's own stderr, which a command's 2> cannot take.
trap 'echo "drill.$name: line $LINENO (${BASH_LINENO[*]}): $BASH_COMMAND" >&3' ERR
rm -rf "$build/tests/drills/$name"
mkdir -p "$build/tests/drills/$name"
cd "$build/tests/drills/$name"

check() { python3 "$src/tools/check_report.py" "$@"; }

expect() {
  local want=$1 rc=0
  shift
  "$@" || rc=$?
  [ "$rc" -eq "$want" ] || { echo "'$*' exited $rc, not $want" >&3; exit 1; }
}

# stream <run> [flags]: data_platform_stream 0.2 into <run>.log and
# <run>.err, and its "request ..." lines (the verdicts) into <run>.req.
stream() {
  local run=$1 rc=0
  shift
  "$bin/data_platform_stream" 0.2 "$@" > "$run.log" 2> "$run.err" || rc=$?
  grep '^request' "$run.log" > "$run.req" || true
  return $rc
}

same() { diff -u "$1.req" "$2.req"; }

# A fault drill proves nothing if no fault fired.
fired() { grep -E "fault injection: [1-9][0-9]* total" "$1"; }

drill_store() {
  "$bin/quickstart" --snapshot_dir=qs_store > quickstart.log
  "$bin/quickstart" --snapshot_dir=qs_store > restore.log
  grep -q "restored platform from snapshot" restore.log
  # The simulated crash exits 3; the rerun resumes from the snapshot,
  # serves the tail of an uninterrupted run and leaves the same store.
  stream full --datasets=3 --snapshot_dir=full_store
  expect 3 stream killed --datasets=3 --kill_after=1 --snapshot_dir=store
  stream resumed --datasets=3 --snapshot_dir=store
  grep -q "resumed from snapshot" resumed.log
  tail -n 2 full.req > tail.req
  same tail resumed
  diff -r full_store store
  check snapshot qs_store --all
  check snapshot store --all
  ENLD_BENCH_ROWS=2000 "$bench/bench_store_io" > store_io.log
}

# auto is AVX-512 where the host has it, so avx2 runs explicitly. The
# snapshot bytes cover the model and the CRC-32 kernel: dataset manifests
# record each shard's CRC. Every run, at either thread count, writes the
# request lines and the store, file for file, of generic at one thread.
drill_backend() {
  for t in 1 4; do
    for kernel in generic avx2 auto; do
      ENLD_THREADS=$t ENLD_KERNEL=$kernel stream ${kernel}_$t \
        --datasets=4 --snapshot_dir=store_${kernel}_$t
      check snapshot store_${kernel}_$t --all
      same generic_1 ${kernel}_$t
      diff -r store_generic_1 store_${kernel}_$t
    done
  done
}

# Every store fault site flaky at p=0.05: the retry layer absorbs every
# transient, in the sequential loop and in the batched async pipeline, and
# leaves the output and the store unchanged.
drill_chaos() {
  local faults=store/read_file:0.05,store/write_file:0.05,store/fsync:0.05,store/rename:0.05,snapshot/publish:0.05
  export ENLD_FAULTS_SEED=7
  for t in 1 4; do
    ENLD_THREADS=$t stream clean_$t --datasets=4 --snapshot_dir=clean_$t
    ENLD_THREADS=$t ENLD_FAULTS=$faults stream chaos_$t --datasets=4 \
      --snapshot_dir=chaos_store_$t --telemetry_out=chaos_$t.json
    same clean_$t chaos_$t
    fired chaos_$t.err
    check snapshot chaos_store_$t --all
    diff -r clean_$t chaos_store_$t
    ENLD_THREADS=$t ENLD_FAULTS=$faults stream async_$t --datasets=4 \
      --async --batch_size=2 --snapshot_dir=async_store_$t
    same clean_$t async_$t
    check snapshot async_store_$t --all
    diff -r clean_$t async_store_$t
  done
  # One request overruns its deadline; the ones behind it keep flowing.
  ENLD_FAULTS=platform/slow_detect:1.0:1 stream deadline --datasets=4 \
    --async --request_deadline=5.0
  [ "$(grep -c DeadlineExceeded deadline.err)" -eq 1 ]
  grep -q "deadlines: 1 request(s) exceeded" deadline.log
  [ "$(wc -l < deadline.req)" -eq 3 ]
  stream gc --datasets=4 --snapshot_dir=gc_store --snapshot_keep=2
  [ "$(ls -d gc_store/snap-* | wc -l)" -eq 2 ]
  check snapshot gc_store --all
}

# docs/ROBUSTNESS.md, "Self-healing runbook".
drill_heal() {
  ENLD_THREADS=1 stream seed --datasets=3 --snapshot_dir=store
  ENLD_THREADS=1 stream full --datasets=5
  tail -n 2 full.req > tail.req
  python3 -c 'import sys; p = sys.argv[1]; d = bytearray(open(p, "rb").read())
d[64] ^= 0x5A; open(p, "wb").write(d)' \
    "$(ls store/snap-*/train/shard-00000.bin | tail -n 1)"
  expect 3 check snapshot store --all --json=audit.json 2> audit.err
  grep -q crc_mismatch audit.json
  # A crash at repair's publish step leaves CURRENT unmoved; the same
  # repair, re-run, heals, and a second pass finds a clean store.
  cp store/CURRENT CURRENT.before
  ENLD_FAULTS=store/repair_publish:1.0:0:0 expect 1 \
    "$bin/enld_cli" repair store 2> crash.err
  grep -q "injected fault at store/repair_publish" crash.err
  cmp store/CURRENT CURRENT.before
  "$bin/enld_cli" repair store --scrub_out=scrub.json \
    --repair_out=repair.json > repair.log
  check scrub scrub.json --expect-findings
  check repair repair.json --expect-repaired
  check snapshot store --all
  "$bin/enld_cli" repair store --repair_out=repair_clean.json > clean.log
  check repair repair_clean.json --expect-clean
  for t in 1 4; do
    cp -r store store_$t
    ENLD_THREADS=$t stream resumed_$t --datasets=5 --snapshot_dir=store_$t
    grep -q "resumed from snapshot" resumed_$t.log
    same tail resumed_$t
  done
  # The background scrubber runs off the request path, output unchanged.
  ENLD_THREADS=4 stream hook --datasets=5 --async --snapshot_dir=hook_store \
    --scrub_every=1
  grep -E "background scrub: [1-9][0-9]* run\(s\), 0 finding\(s\)" hook.err
  tail -n 2 hook.req > hook_tail.req
  same tail hook_tail
  # A bad CSV is quarantined, not fatal. Replay against the still-bad
  # source re-rejects; once it is fixed every row is readmitted.
  printf '# classes=3 dim=2\nid,observed,true,f0,f1\n1,0,0,0.5,0.25\n' \
    | tee bad.csv > fixed.csv
  printf '2,1,1,nan,0.75\n3,9,0,0.5,0.5\n4,2,2,0.1,inf\n5,-1,1,0.2,0.3\n' \
    >> bad.csv
  printf '2,1,1,0.6,0.75\n3,2,0,0.5,0.5\n4,2,2,0.1,0.9\n5,1,1,0.2,0.3\n' \
    >> fixed.csv
  expect 2 "$bin/enld_cli" validate --input=bad.csv \
    --quarantine_out=quarantine.json > validate.log
  grep -q "3 quarantined" validate.log
  check quarantine quarantine.json --expect-nonempty
  expect 2 "$bin/enld_cli" replay quarantine.json --input=bad.csv \
    --replay_out=replay_bad.json > replay_bad.log
  check replay replay_bad.json
  for t in 1 4; do
    ENLD_THREADS=$t "$bin/enld_cli" replay quarantine.json \
      --input=fixed.csv --replay_out=replay_$t.json > replay_$t.log
    check replay replay_$t.json --expect-readmitted
  done
  cmp replay_1.json replay_4.json
}

# docs/SERVING.md: the stream served over loopback, every rpc/* wire fault
# armed server-side, equals the in-process loop.
drill_serving() {
  server= port=
  trap '[ -z "${server:-}" ] || kill "$server" 2> /dev/null || true' EXIT
  stream in_process --datasets=4
  export ENLD_FAULTS_SEED=7
  for conns in 1 4; do
    ENLD_FAULTS=rpc/delay:0.25,rpc/drop_frame:0.2:3,rpc/truncate_frame:0.2:3,rpc/corrupt_frame:0.2:3 \
      "$bin/enld_server" 0.2 --datasets=4 --slow_request_seconds=0.001 \
      > server_$conns.log 2> server_$conns.err &
    server=$!
    until port=$(grep -oP 'serving on 127\.0\.0\.1:\K[0-9]+' server_$conns.log); do
      kill -0 "$server"  # enld_server must not exit before serving
      sleep 0.1
    done
    "$bin/enld_load_client" 0.2 --datasets=4 --port="$port" \
      --connections=$conns > client_$conns.log 2> client_$conns.err
    # The armed faults hit the stats frames too; the scrape's retries
    # absorb them.
    "$bin/enld_cli" stats "127.0.0.1:$port" --shutdown > stats_$conns.json
    wait "$server"
    server=
    grep '^request' client_$conns.log > wire_$conns.req
    same in_process wire_$conns
    check stats stats_$conns.json --expect-requests=4 --expect-tagged-ring
    fired server_$conns.err
    grep -q "slow request: id=" server_$conns.err
    grep -q "\[enld_server\] conn " server_$conns.err
  done
  ENLD_BENCH_DATASETS=3 ENLD_BENCH_SERVING_REQS=12 ENLD_BENCH_SERVING_QPS=40 \
    ENLD_BENCH_SERVING_CONNS=1,4 "$bench/bench_serving" \
    --telemetry_out=serving.json > bench_serving.log
  check serving serving.json
  # Bad input exits before a server starts; the timeout turns a server
  # that starts anyway into a failure rather than a hang.
  ENLD_BENCH_SERVING_REQS=abc expect 2 "$bench/bench_serving" \
    > bad_reqs.log 2>&1
  expect 0 timeout 10 "$bin/enld_server" --help > server_help.log
  expect 2 timeout 10 "$bin/enld_server" --no_such_flag \
    > server_bad_flag.log 2>&1
}

# docs/DETECTORS.md: a scoped matrix sweep, and the CLI's detector table
# listing and typed option errors.
drill_detectors() {
  ENLD_BENCH_TASKS=emnist ENLD_BENCH_NOISES=0.1,0.2 ENLD_BENCH_DATASETS=2 \
    "$bench/bench_detector_matrix" --detectors=default,probe \
    --matrix_out=matrix.json > matrix.log
  check matrix matrix.json --min-detectors=2
  "$bin/enld_cli" detect --list_detectors > detectors.txt
  for key in default cl1 cl2 topofilter o2u coteaching incv pls probe \
      longremix enld; do
    grep -q "^  $key " detectors.txt
  done
  # Defaults are read from the config fields: one of each option type.
  for default in epochs=16 mutual_knn=true seed_fraction=0.2; do
    grep -q "^      $default " detectors.txt
  done
  "$bin/enld_cli" --help > help.txt
  grep -q "registered detectors" help.txt
  expect 1 "$bin/enld_cli" detect --detector=no-such 2> unknown.err
  grep -q "InvalidArgument: unknown detector 'no-such'" unknown.err
  expect 1 "$bin/enld_cli" detect --detector=probe \
    --detector_opt epochs=banana 2> option.err
  grep -q "InvalidArgument: option 'epochs' of detector 'probe'" option.err
  # A count the detector loops by is refused, not left to abort the run.
  expect 1 "$bin/enld_cli" detect --detector=o2u \
    --detector_opt cycles=0 2> bound.err
  grep -q "InvalidArgument: option 'cycles' of detector 'o2u'" bound.err
  "$bin/enld_cli" detect --dataset=emnist --noise=0.2 --datasets=2 \
    --detector=longremix --detector_opt iterations=1 > longremix.log
  # A count or rate the examples cannot parse exits 2 before any work.
  expect 2 "$bin/enld_cli" detect --dataset=emnist --datasets=abc \
    2> bad_count.err
  grep -q -- '--datasets="abc" is not valid: expected an integer >= 1' \
    bad_count.err
  expect 2 "$bin/enld_cli" detect --dataset=emnist --datasets=0 2> zero.err
  expect 2 "$bin/enld_cli" detect --dataset=emnist --noise=abc --datasets=1 \
    2> bad_noise.err
  expect 2 "$bin/data_platform_stream" abc --datasets=1 > bad_rate.log 2>&1
}

drill_bench() {
  # Exits non-zero when detector partitions, or the partitions of its
  # multi-request stream, differ between thread counts.
  "$bench/bench_parallel_scaling" > parallel_scaling.log
  # bench_paper writes CLAIMS.json where it runs. Every row on two-dataset
  # streams; a scoped run records its verdicts and exits 0.
  local scope="ENLD_BENCH_NOISES=0.2 ENLD_BENCH_DATASETS=2"
  mkdir sweep t1 t4
  (cd sweep && env ENLD_THREADS=1 $scope "$bench/bench_paper" > paper.log)
  check claims sweep/CLAIMS.json
  # A detector cell (fig06), ENLD variant cells (fig14) and a row's own
  # function (fig03) write the same bytes at one and four pool threads.
  for t in 1 4; do
    (cd t$t && env ENLD_THREADS=$t $scope "$bench/bench_paper" fig03 fig06 \
      fig14 > paper.log)
  done
  cmp t1/CLAIMS.json t4/CLAIMS.json
  ENLD_BENCH_TASKS=emnist ENLD_BENCH_NOISES=0.2 ENLD_BENCH_DATASETS=2 \
    "$bench/bench_paper" fig08 --telemetry_out=telemetry.json > fig08.log
  check telemetry telemetry.json
  expect 2 "$bench/bench_paper" fig99 > bad_row.log 2>&1
  grep -q "unknown row 'fig99'; the rows are: fig03" bad_row.log
  ENLD_BENCH_TASKS=tiny-imagenet expect 2 "$bench/bench_paper" \
    > bad_task.log 2>&1
}

# The tracked hot-path speedups (docs/BENCHMARKS.md) at one pool thread,
# so cpu_time counts a product's whole cost; the fine-tune runs at one
# pool thread in both benchmark workloads.
drill_hotpath() {
  local rows='ScalarDistanceLoop/1024/64|BatchedDistance/generic/1024/64|MatMulScalar/64/128/64|MatMul/auto/64/128/64|SoftmaxRows/(generic|avx512)/64/100|Crc32/(generic|auto)'
  ENLD_THREADS=1 "$bench/bench_micro_substrates" \
    --benchmark_filter="^BM_($rows)\$" --benchmark_out=hotpath.json \
    --benchmark_out_format=json > hotpath.log
  check microbench hotpath.json
}

"drill_$name"
echo "drill.$name: OK"
