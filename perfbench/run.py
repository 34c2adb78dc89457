#!/usr/bin/env python3
"""One command for the repository benchmark: builds the harness from the
checkout's sources, runs one workload, checks the outputs and prints every
metric by name with its unit; the last line is the JSON result.

    python3 perfbench/run.py --workload stream|serve --seed N \\
        --seconds 40 --trace 0|1 [--serve-rps R]

--seed held-out picks the held-out seed named in BENCHMARK.json's command.
--trace 0 reports the end-to-end metrics of an untraced pass; --trace 1
runs an untraced and a traced pass of half the work each and reports the
per-layer metrics.
The exit status is 0 only when every output check passed. See README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import test_stats  # noqa: E402

WORKLOADS = ("stream", "serve")
# Mean F1 below this fails the run: a speed-up bought with detection
# quality must not pass. The seed commit scores ~0.7 on every workload.
F1_FLOOR = 0.5
# The harness stops sending after this many seconds, so that a run ends
# well inside the 180 s limit even on a much slower build.
HARNESS_BUDGET_S = 140.0

# Span names of the fine-grained detection layer (src/enld/fine_grained.cc).
DETECT_FAMILY = {
    "detect", "detect/inference", "detect/sampling", "detect/warmup",
    "detect/iteration", "detect/finetune", "detect/voting",
}
DETECT_LAYERS = ("finetune", "voting", "warmup", "inference", "sampling")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The build system is generated only by a configure that succeeded.
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "enld_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return BUILD / "enld_perfbench"


def run_harness(binary, args, seed, out):
    workdir = BUILD / "work" / f"{args.workload}-{seed}-{os.getpid()}"
    command = [
        str(binary), "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--out", str(out),
        "--serve-rps", str(args.serve_rps),
        "--budget", str(HARNESS_BUDGET_S),
    ]
    # The library reads ENLD_* variables (threads, faults, cache switch);
    # the workload must not depend on the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENLD_")}
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              timeout=HARNESS_BUDGET_S + 30.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: harness exited {done.returncode}")
    with open(out) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Metrics.

def phase_requests(pass_, phase):
    return [r for r in pass_["requests"] if r["phase"] == phase]


def phase_seconds(pass_, phase):
    """Wall time of a phase, summed over its segments."""
    return sum(w["end"] - w["start"] for w in pass_["phases"]
               if w["name"] == phase)


def measured_phase(workload):
    """The requests the end-to-end metrics come from: the stream, or the
    back-to-back segments of a wire workload (4 connections, each sending
    as soon as its previous response arrived)."""
    return "stream" if workload == "stream" else "saturate"


def latency_ms(pass_, phase, planned_unsent=0):
    """Latency from the scheduled send; a paced request is scheduled by the
    clock, a back-to-back one by its connection's previous response."""
    requests = phase_requests(pass_, phase)
    values = stats.latencies_with_failures(requests, "scheduled")
    return values + [math.inf] * planned_unsent


def mean_f1(requests):
    scores = [stats.f1_score(r["tp"], r["fp"], r["fn"])
              for r in requests if r["ok"]]
    scores = [s for s in scores if s is not None]
    return (statistics.fmean(scores) if scores else 0.0), len(scores)


def end_to_end(raw, workload):
    pass_ = raw["passes"][0]
    requests = pass_["requests"]
    planned = int(raw["planned_requests"])
    unsent = planned - len(requests)
    served = sum(1 for r in requests if r["ok"])
    phase = measured_phase(workload)
    latencies = latency_ms(pass_, phase, unsent)
    thr_ok = [r for r in phase_requests(pass_, phase) if r["ok"]]
    wall = phase_seconds(pass_, phase)
    f1, f1_n = mean_f1(requests)
    n = len(latencies)
    supported = stats.highest_supported_percentile(n)
    values = {
        "setup_s": statistics.median(raw["setup_seconds"]),
        "latency_p50_ms": stats.finite_or_cap(
            stats.percentile(latencies, 0.5)),
        "latency_p90_ms": stats.finite_or_cap(
            stats.percentile(latencies, 0.9)),
        "samples_per_s": sum(r["rows"] for r in thr_ok) / wall,
        "capacity_rps": len(thr_ok) / wall,
        "served_frac": served / planned,
        "f1": f1,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(raw['setup_seconds'])} set-ups",
        "latency_p50_ms": f"n={n}",
        "latency_p90_ms": f"n={n}; the sample supports up to "
                          + (f"p{100 * supported:.1f}" if supported
                             else "no tail percentile"),
        "samples_per_s": f"{sum(r['rows'] for r in thr_ok)} rows over "
                         f"{wall:.2f} s",
        "capacity_rps": f"{len(thr_ok)} requests over {wall:.2f} s",
        "served_frac": f"{served} of {planned} served"
                       + (f", {unsent} not sent in the time budget"
                          if unsent else ""),
        "f1": f"mean over {f1_n} requests; floor {F1_FLOOR}",
        "peak_rss_mb": "whole run",
    }
    if workload != "stream":
        for name in ("latency_p50_ms", "capacity_rps"):
            notes[name] += "; 4 connections back to back"
    return values, notes, planned, planned - served


def tel_spans(tel):
    return tel["spans"] if tel else []


def span_total(tel, name):
    return sum(n["total_s"] for n in tel_spans(tel)
               if n["path"].split(">")[-1] == name)


def span_count(tel, name):
    return sum(int(n["count"]) for n in tel_spans(tel)
               if n["path"].split(">")[-1] == name)


def per_layer(raw, workload):
    """Per-layer metrics of the traced pass, with the base of each."""
    untraced, traced = raw["passes"][0], raw["passes"][1]
    tel = traced["telemetry"]
    counters = tel["counters"]
    spans = traced["spans"]
    wire = workload != "stream"
    requests = traced["requests"]
    n = max(1, span_count(tel, "platform/process"))
    base = f"per request, base {n} requests"
    m, notes = {}, {}

    def put(name, value, note):
        m[name] = float(value)
        notes[name] = note

    def counter(name):
        return counters.get(name, 0.0)

    process = [r["process_s"] * 1e3 for r in requests]
    put("platform.process_p50_ms", stats.percentile(process, 0.5),
        f"n={len(process)}")
    put("platform.process_p90_ms", stats.percentile(process, 0.9),
        f"n={len(process)}")
    if wire:
        hist = tel["histograms"].get("pipeline/admission_seconds",
                                     {"count": 0, "sum": 0.0})
        admission = hist["sum"] * 1e3 / max(1, hist["count"])
    else:
        admission = statistics.fmean(r["admission_s"] for r in requests) * 1e3
    put("admission.ms", admission, base)

    setup_tel = untraced["telemetry"].get("setup")
    initializations = span_count(setup_tel, "setup")
    for layer in ("general_model", "joint_estimation"):
        total = span_total(setup_tel, "setup/" + layer)
        put(f"setup.{layer}_s", total / max(1, initializations),
            f"per Initialize, base {initializations}"
            if initializations else "n/a: no Initialize in the run")
    restores = span_count(setup_tel, "store/restore_snapshot")
    put("store.restore_s",
        span_total(setup_tel, "store/restore_snapshot") / max(1, restores),
        f"per restore, base {restores}" if restores
        else "n/a: the stream does not restore")

    detect_ms = {}
    for layer in DETECT_LAYERS:
        detect_ms[layer] = stats.tree_self_time(
            tel_spans(tel), "detect/" + layer, DETECT_FAMILY) * 1e3 / n
        put(f"detect.{layer}_ms", detect_ms[layer], base + "; self time")

    put("train.steps", counter("train/steps") / n, base)
    put("train.samples", counter("train/samples") / n, base)
    put("train.batch_assembly_ms",
        counter("train/batch_assembly_us") / 1e3 / n, base)
    put("knn.trees_built", counter("knn/trees_built") / n, base)
    put("knn.queries", counter("knn/queries") / n, base)
    put("knn.build_ms", span_total(tel, "knn/build_class_index") * 1e3 / n,
        base)

    for kind in ("view", "index"):
        hits = counter(f"cache/{kind}_hits")
        lookups = hits + counter(f"cache/{kind}_misses")
        put(f"cache.{kind}_hit_ratio", hits / lookups if lookups else 0.0,
            f"base {int(lookups)} lookups")
        put(f"cache.{kind}_lookups", lookups, "count in the traced pass")
    put("cache.invalidations", counter("cache/invalidations"),
        "count in the traced pass")

    updates = span_count(tel, "update")
    update_total_ms = span_total(tel, "update") * 1e3
    put("update.count", updates, "count in the traced pass")
    put("update.ms", update_total_ms / updates if updates else 0.0,
        f"per update, base {updates}" if updates else "n/a: no update ran")

    queue = [r["queue_s"] * 1e3 for r in requests]
    queue_note = f"n={len(queue)}" if wire else "n/a: no pipeline"
    put("pipeline.queue_wait_p50_ms", stats.percentile(queue, 0.5),
        queue_note)
    put("pipeline.queue_wait_p90_ms", stats.percentile(queue, 0.9),
        queue_note)
    put("pipeline.batches", counter("pipeline/batches"),
        "count in the traced pass")
    put("pipeline.largest_batch", traced["server"].get("largest_batch", 0),
        "requests")
    put("pipeline.hol_blocked", counter("pipeline/hol_blocked"),
        "count; needs a queue-wait budget, which the policy leaves unset")

    captures = {s["request"]: s["end"] - s["start"]
                for s in spans if s["name"] == "store/capture"}
    writes = {s["request"]: s["end"] - s["start"]
              for s in spans if s["name"] == "store/write"}
    # With one pool thread the write runs inline on the dispatcher, before
    # the response goes out; with more it overlaps the next request.
    inline_writes = writes if raw["pool_threads"] == 1 else {}
    put("store.capture_ms",
        statistics.fmean(captures.values()) * 1e3 if captures else 0.0,
        f"per capture, base {len(captures)}")
    put("store.write_ms",
        statistics.fmean(writes.values()) * 1e3 if writes else 0.0,
        f"per write, base {len(writes)}"
        + ("; inline, on the request path" if inline_writes else ""))
    put("store.snapshot_writes", counter("pipeline/snapshot_writes"),
        "count in the traced pass")
    put("store.bytes_written", counter("store/bytes_written") / n, base)

    # Round trip minus what the server accounts for: queue, process and
    # the snapshot work the dispatcher runs before answering.
    def server_tail(sequence):
        return captures.get(sequence, 0.0) + inline_writes.get(sequence, 0.0)

    wire_ms = [
        ((r["done"] - r["sent"]) - r["queue_s"] - r["process_s"]
         - server_tail(r["sequence"])) * 1e3
        for r in requests if r["ok"]
    ] if wire else []
    put("rpc.wire_ms", statistics.fmean(wire_ms) if wire_ms else 0.0,
        f"per request, base {len(wire_ms)}" if wire else "n/a: no wire")
    server = traced["server"]
    put("rpc.bytes_read", server.get("bytes_read", 0) / n, base)
    put("rpc.bytes_written", server.get("bytes_written", 0) / n, base)

    put("pool.tasks", counter("pool/tasks") / n, base)
    put("pool.queue_wait_ms", counter("pool/queue_wait_us") / 1e3 / n, base)
    put("pool.execute_ms", counter("pool/execute_us") / 1e3 / n, base)
    put("parallel.chunks", counter("parallel/chunks") / n, base)

    late = [(r["sent"] - r["scheduled"]) * 1e3 for r in requests
            if r["phase"] == "paced"]
    put("gen.late_p90_ms", stats.percentile(late, 0.9) if late else 0.0,
        f"n={len(late)}" if late else "n/a: closed loop")
    # The open-loop latency at the fixed rate, from the untraced pass.
    paced = latency_ms(untraced, "paced")
    for q in (50, 90):
        put(f"paced.latency_p{q}_ms",
            stats.percentile(paced, q / 100) if paced else 0.0,
            f"untraced pass, n={len(paced)}" if paced
            else "n/a: closed loop")

    # Every layer on the request path, as mean ms per request.
    latency = [(r["done"] - r["scheduled"]) * 1e3 for r in requests]
    layers = [m["admission.ms"]] + list(detect_ms.values())
    layers.append(update_total_ms / n)
    if wire:
        layers += [
            statistics.fmean(late) if late else 0.0,
            m["rpc.wire_ms"],
            statistics.fmean(queue),
            sum(server_tail(seq) for seq in captures) * 1e3 / n,
        ]
    put("unattributed_ms", stats.unattributed(statistics.fmean(latency),
                                              layers),
        f"{base}; of mean latency {statistics.fmean(latency):.2f} ms")

    p50 = {}
    for p in (untraced, traced):
        p50[p["traced"]] = stats.percentile(
            latency_ms(p, measured_phase(workload)), 0.5)
    put("trace.overhead_ms", p50[True] - p50[False],
        f"traced p50 {p50[True]:.2f} ms - untraced p50 {p50[False]:.2f} ms")
    put("trace.requests", n, "requests the platform served, traced pass")
    return m, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", default=None)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-rps", type=float, default=1.0)
    parser.add_argument("--default-seed", type=int, default=1)
    parser.add_argument("--held-out-seed", type=int, default=1009)
    args = parser.parse_args()
    seed = {None: args.default_seed, "held-out": args.held_out_seed}.get(
        args.seed, args.seed)
    seed = int(seed)

    ok, report = test_stats.run_quietly()
    if not ok:
        log(report)
        raise SystemExit("perfbench: arithmetic self-test failed")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()
    binary = build()
    log(f"perfbench: build ready in {time.monotonic() - started:.1f} s")
    BUILD.mkdir(exist_ok=True)
    out = BUILD / f"raw-{args.workload}-{seed}-trace{args.trace}.json"
    raw = run_harness(binary, args, seed, out)

    problems = list(raw["violations"])
    values, notes, attempted, failed = end_to_end(raw, args.workload)
    if values["f1"] < F1_FLOOR:
        problems.append(f"mean F1 {values['f1']:.4f} is below the floor "
                        f"{F1_FLOOR}")
    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values, notes = per_layer(raw, args.workload)
    unit = {m["name"]: m["unit"] for m in benchmark[section]}
    missing = sorted(set(unit) - set(values))
    if missing:
        problems.append("metrics not computed: " + ", ".join(missing))

    print(f"perfbench {args.workload} seed={seed} seconds={args.seconds} "
          f"trace={args.trace}  raw measurements: "
          f"{out.relative_to(ROOT)}")
    better = {m["name"]: m["better"] for m in benchmark[section]}
    for name in unit:
        if name not in values:
            continue
        print(f"  {name:28s} {values[name]:14.4f} {unit[name]:10s} "
              f"{better[name]:6s} {notes[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not problems:
        checks = ["partitions", "F1 floor"]
        if args.workload != "stream":
            checks += ["request ids", "server sequences", "snapshot writes",
                       "snapshot restore"]
        elif args.trace:
            checks.append("traced and untraced verdicts")
        print("checks passed: " + ", ".join(checks))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit[name]}
                    for name in unit if name in values},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
