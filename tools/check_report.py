#!/usr/bin/env python3
"""One offline checker for every report and store ENLD writes.

Usage: check_report.py <kind> <file> [expectations]

Each kind registers its field types (the schema tag among them), its
rules and the expectations it accepts with @kind; a bad argument lists
the kind's expectations. `snapshot` audits a store directory: the snapshot CURRENT
names, or every snap-* with --all, recomputing each CRC with zlib;
--json=PATH writes its findings as "enld-snapshot-audit-v1".

Exit codes, for every kind: 0 = valid and expectations met; 1 =
unreadable input or an unwritable --json; 2 = usage error; 3 = rule
violations, one "FAIL" line each on stderr. Standard library only.
"""

import json
import os
import struct
import sys
import zlib

errors = []


def fail(message):
    errors.append(message)


def exit_with(code, message):
    print(message, file=sys.stderr)
    sys.exit(code)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        exit_with(1, f"FAIL {path}: unreadable or malformed JSON: {e}")


def number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# A field's type in a schema table: a name below, a set of the allowed
# strings, a dict (an object with those fields) or [dict] (an array of
# such objects).
TYPES = {
    "uint": ("a non-negative integer",
             lambda v: number(v) and v >= 0 and v == int(v)),
    "number": ("a non-negative number", lambda v: number(v) and v >= 0),
    "positive": ("a positive number", lambda v: number(v) and v > 0),
    "fraction": ("a number in [0, 1]", lambda v: number(v) and 0 <= v <= 1),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "str?": ("a string", lambda v: isinstance(v, str)),
    "array": ("an array", lambda v: isinstance(v, list)),
    "items": ("a non-empty array", lambda v: isinstance(v, list) and v),
    "object": ("an object", lambda v: isinstance(v, dict)),
}


def typed(doc, spec, where=""):
    """Checks doc's fields against spec; True when all of them conform."""
    before = len(errors)
    for key, kind in spec.items():
        value, at = doc.get(key), f"{where}{key}"
        if isinstance(kind, set):
            if not isinstance(value, str) or value not in kind:
                fail(f"{at} {value!r} is not one of {sorted(kind)}")
            continue
        what, test = TYPES["object" if isinstance(kind, dict) else
                           "array" if isinstance(kind, list) else kind]
        if not test(value):
            fail(f"{at} missing or not {what}: {value!r}")
        elif isinstance(kind, dict):
            typed(value, kind, f"{at}.")
        elif isinstance(kind, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    typed(item, kind[0], f"{at}[{i}].")
                else:
                    fail(f"{at}[{i}] is not an object")
    return len(errors) == before


KINDS = {}  # kind: (field types, rules, accepted flags)


def kind(name, flags=(), spec=None):
    """Registers rules that run once the document conforms to spec; a
    "name=" flag takes a value. A kind without a spec reads no JSON."""
    def register(rules):
        KINDS[name] = (spec, rules, flags)
        return rules
    return register


def at_most(doc, small, big, where=""):
    if doc[small] > doc[big]:
        fail(f"{where}{small} {doc[small]} > {where}{big} {doc[big]}")


def ascending(where, values, strict=False):
    if any(a >= b if strict else a > b for a, b in zip(values, values[1:])):
        fail(f"{where} not {'strictly ' * strict}ascending: {values}")


HISTOGRAM = {"count": "uint", "upper_bounds": "array",
             "bucket_counts": "array",
             "quantiles": {"p50": "number", "p90": "number", "p99": "number"}}


def check_histogram(where, hist):
    """Buckets, bounds and quantiles agree; returns the count."""
    if not isinstance(hist, dict) or not typed(hist, HISTOGRAM, where):
        return None
    count, bounds, buckets = (hist[key] for key in
                              ("count", "upper_bounds", "bucket_counts"))
    quantiles = [hist["quantiles"][q] for q in ("p50", "p90", "p99")]
    if len(buckets) != len(bounds) + 1:
        fail(f"{where}bucket_counts: {len(buckets)} for {len(bounds)} bounds")
    ascending(f"{where}upper_bounds", bounds, strict=True)
    if sum(buckets) != count:
        fail(f"{where}bucket_counts sum {sum(buckets)} != count {count}")
    ascending(f"{where}quantiles p50, p90, p99", quantiles)
    if bounds and count and quantiles[2] > bounds[-1]:
        fail(f"{where}quantiles.p99 {quantiles[2]} > last bound {bounds[-1]}")
    if count == 0 and any(quantiles):
        fail(f"{where}quantiles {quantiles} though count is 0")
    return count


def span_depth(span):
    return 1 + max(map(span_depth, span["children"])) \
        if span.get("children") else 0


def find_span(span, name):
    if span.get("name") == name:
        return span
    for child in span.get("children", []):
        found = find_span(child, name)
        if found is not None:
            return found
    return None


# Run reports (docs/OBSERVABILITY.md, docs/SERVING.md §6).
@kind("telemetry", (), {
    "schema": {"enld-telemetry-v1"}, "method": "str", "noise_rate": "number",
    "threads": "uint", "spans": "object", "quality": "object",
    "metrics": {
        "counters": dict.fromkeys(
            ("detect/votes_cast", "knn/queries", "train/steps"), "uint"),
        "histograms": {"detect/vote_margin": {"count": "positive"}},
        "series": dict.fromkeys(
            ("detect/clean_size", "detect/ambiguous_size", "eval/f1"),
            "items")}})
def check_telemetry(doc, opts, path):
    spans = doc["spans"]
    for phase in ("setup", "detect"):
        if not (find_span(spans, phase) or {}).get("children"):
            fail(f"span tree has no '{phase}' node with children")
    # Root > phase > child > grandchild, e.g. detect > detect/iteration >
    # detect/finetune.
    if span_depth(spans) < 3:
        fail(f"span tree depth {span_depth(spans)} < 3")
    distinct = len(doc["metrics"]["counters"]) + len(
        doc["metrics"]["histograms"])
    if distinct < 10:
        fail(f"{distinct} distinct counters and histograms < 10")


# The counters demand real wire traffic and at least one request served
# by the platform.
@kind("serving", (), {
    "schema": {"enld-telemetry-v1"}, "method": {"bench-serving"},
    "quality": "object",
    "metrics": {"counters": dict.fromkeys(
        ("rpc/bytes_read", "rpc/bytes_written", "rpc/requests",
         "rpc/responses", "pipeline/completed"), "positive")}})
def check_serving(doc, opts, path):
    quality, counters = doc["quality"], doc["metrics"]["counters"]
    cells = sorted({key[:-len("_p50_ms")] for key in quality
                    if key.endswith("_p50_ms")})
    if not cells:
        fail("no *_p50_ms latency cells in quality")
    for cell in cells:
        p50, p99, qps = (quality.get(f"{cell}_{key}") for key in
                         ("p50_ms", "p99_ms", "achieved_qps"))
        if not number(p50) or not number(p99) or not 0 < p50 <= p99:
            fail(f"cell {cell}: want 0 < p50 <= p99, got {p50} and {p99}")
        if not number(qps) or qps <= 0:
            fail(f"cell {cell}: achieved qps missing or zero")
    at_most(counters, "rpc/responses", "rpc/requests")


# Live stats (docs/OBSERVABILITY.md): one rpc/e2e_seconds observation per
# dispatched request, consistent counters, and a ring of tagged requests.
@kind("stats", ("expect-requests=", "expect-tagged-ring"), {
    "schema": {"enld-stats-v1"}, "uptime_seconds": "positive",
    "build": {"frame_version": "uint", "frame_header_bytes": "uint",
              "config_fingerprint": "str"},
    "server": dict.fromkeys(
        ("connections_accepted", "connections_rejected",
         "connections_active", "requests", "responses", "wire_errors",
         "dropped_frames", "deadline_propagated", "stats_served"), "uint"),
    "pipeline": dict.fromkeys(
        ("submitted", "completed", "batches", "largest_batch",
         "queue_deadline_drops", "hol_blocked", "snapshot_writes",
         "queue_depth"), "uint"),
    "recent_requests": [{"sequence": "uint", "request_id": "uint",
                         "status": "str", "queue_seconds": "number",
                         "admission_seconds": "number",
                         "detect_seconds": "number",
                         "process_seconds": "number"}],
    "metrics": {"histograms": "object"}})
def check_stats(doc, opts, path):
    fingerprint = doc["build"]["config_fingerprint"]
    if len(fingerprint) != 16 or any(c not in "0123456789abcdef"
                                     for c in fingerprint):
        fail(f"build.config_fingerprint is not 16 hex digits: {fingerprint}")
    at_most(doc["server"], "responses", "requests", "server.")
    at_most(doc["pipeline"], "completed", "submitted", "pipeline.")
    ring = doc["recent_requests"]
    ascending("recent_requests sequences",
              [entry["sequence"] for entry in ring], strict=True)
    if opts.get("expect-tagged-ring") and not any(
            entry["request_id"] for entry in ring):
        fail("no recent_requests entry carries a nonzero request_id")
    counts = {name: check_histogram(f"histograms[{name}].", hist)
              for name, hist in doc["metrics"]["histograms"].items()}
    requests = doc["server"]["requests"]
    if counts.get("rpc/e2e_seconds", -1) != requests:
        fail(f"rpc/e2e_seconds count {counts.get('rpc/e2e_seconds')} != "
             f"server.requests {requests}: one observation per request")
    if int(opts.get("expect-requests", requests)) != requests:
        fail(f"server.requests {requests} != {opts['expect-requests']}")


# Admission and self-healing reports (docs/ROBUSTNESS.md).

@kind("quarantine", ("expect-nonempty",), {
    "schema": {"enld-quarantine-v1"},
    "total": "uint", "recorded": "uint", "capacity": "uint",
    "records": [{"reason": {"non_finite_feature",
                            "observed_label_out_of_range",
                            "true_label_out_of_range"},
                 "detail": "str", "request": "uint", "row": "uint",
                 "sample_id": "uint",
                 # NaN, the typical offender, has no JSON form.
                 "value": "str?"}]})
def check_quarantine(doc, opts, path):
    total, recorded, records = doc["total"], doc["recorded"], doc["records"]
    if recorded != len(records):
        fail(f"recorded {recorded} != {len(records)} records")
    at_most(doc, "recorded", "capacity")
    at_most(doc, "recorded", "total")
    # Older logs predate the truncated marker; when present it must agree.
    if doc.get("truncated", total > recorded) is not (total > recorded):
        fail(f"truncated={doc['truncated']!r} disagrees with total {total}, "
             f"recorded {recorded}")
    if total > recorded:
        print(f"WARN {path}: log truncated at capacity; {total - recorded} "
              "record(s) were dropped and cannot be replayed",
              file=sys.stderr)
    for i, record in enumerate(records):
        if record["reason"] == "non_finite_feature":
            typed(record, {"column": "uint"}, f"records[{i}].")
    if opts.get("expect-nonempty") and not records:
        fail("expected a non-empty quarantine log, got zero records")


# Typed findings, the C++ scrubber's vocabulary (src/store/scrub.h); a
# section may also be "section-<id>".
SECTIONS = {"file", "header", "manifest", "pointer", "geometry"}


@kind("scrub", ("expect-findings",), {
    "schema": {"enld-scrub-v1"}, "scrubbed": "array", "intact": "array",
    "files_checked": "uint", "sections_checked": "uint",
    "bytes_scrubbed": "uint", "clean": "bool",
    "findings": [{"seq": "uint", "file": "str?", "section": "str",
                  "detail": "str",
                  "reason": {"missing", "unreadable", "malformed",
                             "bad_magic", "truncated", "size_mismatch",
                             "crc_mismatch", "mismatch", "dangling",
                             "trailing_bytes"}}]})
def check_scrub(doc, opts, path):
    findings = doc["findings"]
    for i, finding in enumerate(findings):
        if finding["section"] not in SECTIONS \
                and not finding["section"].startswith("section-"):
            fail(f"findings[{i}].section {finding['section']!r} unknown")
    if not set(doc["intact"]) <= set(doc["scrubbed"]):
        fail("intact snapshots are not a subset of scrubbed snapshots")
    if doc["clean"] != (not findings):
        fail(f"clean={doc['clean']} disagrees with {len(findings)} findings")
    if opts.get("expect-findings") and not findings:
        fail("expected scrub findings, got none")


@kind("repair", ("expect-clean", "expect-repaired"), {
    "schema": {"enld-repair-v1"}, "repaired": "bool", "clean": "bool",
    "dry_run": "bool", "failure": "str?", "published_seq": "uint",
    "target_seq": "uint", "scrub_findings": "uint", "intact": "array",
    "actions": [{"seq": "uint", "detail": "str",
                 "method": {"section_rebuild", "donor_file", "donor_rows",
                            "dataset_manifest_rebuild", "manifest_rebuild",
                            "current_rebuild", "rollback", "gc"}}]})
def check_repair(doc, opts, path):
    repaired, clean, dry_run, failure, actions = (
        doc[key] for key in ("repaired", "clean", "dry_run", "failure",
                             "actions"))
    if clean and repaired:
        fail("a store cannot be both already-clean and repaired")
    if clean and actions:
        fail(f"clean=true but {len(actions)} action(s) were taken")
    if repaired and failure:
        fail(f"repaired=true alongside failure {failure!r}")
    if repaired and not dry_run and doc["published_seq"] == 0:
        fail("repaired=true but no published_seq")
    if not (repaired or clean or dry_run or failure):
        fail("neither clean, repaired, dry_run nor failed")
    if opts.get("expect-clean") and not clean:
        fail("expected an already-clean store")
    if opts.get("expect-repaired") and not repaired:
        fail(f"expected repaired=true (failure: {failure!r})")


@kind("replay", ("expect-readmitted",), {
    "schema": {"enld-replay-v1"},
    **dict.fromkeys(("records", "replayed", "missing", "readmitted",
                     "still_rejected"), "uint"),
    **dict.fromkeys(("quarantine_truncated", "processed", "all_readmitted"),
                    "bool"),
    "still_rejected_by_reason": "object",
    "outcomes": [{"sample_id": "uint",
                  "verdict": {"readmitted", "still_rejected", "missing"}}]})
def check_replay(doc, opts, path):
    records, replayed, missing, readmitted, still_rejected = (
        doc[key] for key in ("records", "replayed", "missing", "readmitted",
                             "still_rejected"))
    if replayed + missing != records:
        fail(f"replayed {replayed} + missing {missing} != records {records}")
    if readmitted + still_rejected != replayed:
        fail(f"readmitted {readmitted} + still_rejected {still_rejected} "
             f"!= replayed {replayed}")
    if sum(doc["still_rejected_by_reason"].values()) != still_rejected:
        fail(f"still_rejected_by_reason does not sum to {still_rejected}")
    if len(doc["outcomes"]) != records:
        fail(f"{len(doc['outcomes'])} outcomes for {records} records")
    for i, outcome in enumerate(doc["outcomes"]):
        if outcome["verdict"] == "still_rejected" and not outcome.get(
                "reason"):
            fail(f"outcomes[{i}] is still_rejected without a fresh reason")
    if opts.get("expect-readmitted") and (not readmitted or still_rejected
                                          or missing):
        fail(f"expected a full readmission, got {readmitted} readmitted, "
             f"{still_rejected} still rejected and {missing} missing")


# Detector matrix (docs/DETECTORS.md): every detector x dataset x noise
# cell exactly once, metrics in range, a detector/<key> span per cell.
@kind("matrix", ("min-detectors=",), {
    "schema": {"enld-detector-matrix-v1"}, "threads": "uint",
    "detectors": "array", "datasets": "array", "noises": "array",
    "cells": [{"detector": "str", "display_name": "str", "dataset": "str",
               "noise": "number", "datasets_processed": "positive",
               "precision": "fraction", "recall": "fraction",
               "f1": "fraction", "setup_seconds": "number",
               "avg_process_seconds": "number",
               "spans": [{"path": "str", "count": "positive",
                          "seconds": "number"}]}]})
def check_matrix(doc, opts, path):
    detectors, datasets, noises, cells = (
        doc[key] for key in ("detectors", "datasets", "noises", "cells"))
    if len(detectors) < int(opts.get("min-detectors", 1)):
        fail(f"{len(detectors)} detectors swept < {opts['min-detectors']}")
    if len(set(detectors)) != len(detectors):
        fail("duplicate keys in 'detectors'")
    if not datasets or not noises:
        fail("no datasets or no noise rates swept")
    seen = {}
    for cell in cells:
        key = (cell["detector"], cell["dataset"], cell["noise"])
        seen[key] = seen.get(key, 0) + 1
        if f"detector/{key[0]}" not in [span["path"] for span in
                                        cell["spans"]]:
            fail(f"cell {key} lacks its 'detector/{key[0]}' span")
    combinations = [(d, s, n) for d in detectors for s in datasets
                    for n in noises]
    for key in combinations:
        if seen.get(key, 0) != 1:
            fail(f"combination {key} appears {seen.get(key, 0)} times")
    if len(cells) != len(combinations):
        fail(f"{len(cells)} cells for {len(combinations)} combinations")


# The paper's claims (bench/bench_paper.cpp, docs/BENCHMARKS.md): each
# cell once with its metrics in [0, 1]; on the paper's sweep, every row
# present and every asserted claim passing.
PAPER_ROWS = ("fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
              "fig10", "fig11", "fig12", "fig13a", "fig13b", "fig14",
              "table2", "ext")
# The columns of a row's own numbers that are fractions; every other
# column (losses, counts, rates, iterations) is a non-negative number.
FRACTIONS = {"precision", "recall", "f1", "f1_std", "pseudo_label_f1",
             "detection_f1", "origin_model_acc", "updated_model_acc",
             "selected_purity"}


def unique(where, keys):
    for key in {key for key in keys if keys.count(key) > 1}:
        fail(f"{where} {key} appears {keys.count(key)} times")


@kind("claims", ("expect-paper-sweep",), {
    "schema": {"enld-claims-v1"}, "paper_sweep": "bool", "rows": "items",
    "cells": [{"method": "str", "task": "str", "backbone": "str",
               "noise": "fraction", "datasets": "positive",
               "precision": "fraction", "recall": "fraction",
               "f1": "fraction"}],
    "values": "object",
    "claims": [{"id": "str", "row": "str", "claim": "str",
                "mark": {"asserted", "recorded"},
                "verdict": {"pass", "fail"}}]})
def check_claims(doc, opts, path):
    rows, claims = doc["rows"], doc["claims"]
    for row in set(rows) - set(PAPER_ROWS):
        fail(f"rows: unknown row {row!r}")
    unique("row", rows)
    unique("cell", [tuple(cell[key] for key in
                          ("method", "task", "backbone", "noise"))
                    for cell in doc["cells"]])
    unique("claim", [claim["id"] for claim in claims])
    for claim in claims:
        if claim["row"] not in rows:
            fail(f"claim {claim['id']} belongs to row {claim['row']!r}, "
                 "which did not run")
    for row, table in doc["values"].items():
        if row not in rows:
            fail(f"values.{row}: the row did not run")
        columns = table.get("columns") if isinstance(table, dict) else None
        if not isinstance(columns, list) or not all(
                isinstance(column, str) for column in columns):
            fail(f"values.{row}.columns is not an array of names")
            continue
        for i, values in enumerate(table.get("rows") or [None]):
            if not isinstance(values, list) or len(values) != len(columns):
                fail(f"values.{row}.rows[{i}] is not {len(columns)} numbers")
                continue
            typed(dict(zip(columns, values)),
                  {column: "fraction" if column in FRACTIONS else "number"
                   for column in columns}, f"values.{row}.rows[{i}].")
    if opts.get("expect-paper-sweep") and not doc["paper_sweep"]:
        fail("paper_sweep is false: not a full-length run of every row")
    if not doc["paper_sweep"]:
        return
    for row in sorted(set(PAPER_ROWS) - set(rows)):
        fail(f"the paper's sweep lacks row {row}")
    for claim in claims:
        if claim["mark"] == "asserted" and claim["verdict"] != "pass":
            fail(f"asserted claim {claim['id']} fails: {claim['claim']}")


# Hot-path gates (docs/BENCHMARKS.md, "Tracked hot-path numbers"): the
# fast row against the slow row. Time metrics divide slow by fast,
# throughput divides fast by slow. A skip is (field of the fast row, the
# value that skips the gate, why).
MICROBENCH_GATES = (
    ("batched distance vs scalar on 1024x64", "BM_ScalarDistanceLoop/1024/64",
     "BM_BatchedDistance/generic/1024/64", "cpu_time", 2.0, ()),
    ("dispatched MatMul vs scalar on 64x128x64", "BM_MatMulScalar/64/128/64",
     "BM_MatMul/auto/64/128/64", "cpu_time", 2.0, ()),
    ("avx512 softmax vs generic on 64x100", "BM_SoftmaxRows/generic/64/100",
     "BM_SoftmaxRows/avx512/64/100", "cpu_time", 3.0,
     (("error_occurred", True, "the host has no avx512 backend"),
      ("exp_clone", False,
       "the expf clone's self-check fell back to std::exp"))),
    ("clmul CRC-32 vs slicing-by-8 on 1 MiB", "BM_Crc32/generic",
     "BM_Crc32/auto", "bytes_per_second", 5.0,
     (("clmul", False, "auto runs the slicing-by-8 tables on this host "
       "(no PCLMULQDQ and SSE4.1, or the generic backend)"),)),
)


@kind("microbench", (), {"benchmarks": [{"name": "str"}]})
def check_microbench(doc, opts, path):
    rows = {row["name"]: row for row in doc["benchmarks"]}
    for label, slow_name, fast_name, metric, floor, skips in MICROBENCH_GATES:
        if slow_name not in rows or fast_name not in rows:
            fail(f"{label}: row {slow_name} or {fast_name} missing")
            continue
        slow, fast = rows[slow_name], rows[fast_name]
        why = next((why for field, value, why in skips
                    if bool(fast.get(field)) == value), None)
        if why is not None:
            print(f"skip {label}: {why}")
            continue
        speedup = slow[metric] / fast[metric] if metric.endswith("time") \
            else fast[metric] / slow[metric]
        print(f"{label}: {speedup:.2f}x (floor {floor}x)")
        if speedup < floor:
            fail(f"{label}: {speedup:.2f}x < {floor}x")


# The committed trajectory (docs/BENCHMARKS.md, "The committed
# trajectory") against the names the BENCHMARK.json beside it declares.
@kind("trajectory", (), {
    "schema": {"enld-bench-trajectory-v1"}, "workload": "str",
    "rows": [{"role": {"parent", "change"},
              "source": {"measured", "CHANGES.md"},
              "end_to_end": "object", "per_layer": "object"}]})
def check_trajectory(doc, opts, path):
    bench = load(os.path.join(os.path.dirname(os.path.abspath(path)),
                              "BENCHMARK.json"))
    names = {key: {entry["name"] for entry in bench[key]}
             for key in ("workloads", "end_to_end", "per_layer")}
    workload = doc["workload"]
    if os.path.basename(path) != f"BENCH_{workload}.json" \
            or workload not in names["workloads"]:
        fail(f"workload {workload!r} is not the file name's or not one of "
             "BENCHMARK.json's")
    for i, row in enumerate(doc["rows"]):
        for metric, stats in row["end_to_end"].items():
            where = f"rows[{i}].end_to_end.{metric}"
            values = [stats.get(key, "missing") if isinstance(stats, dict)
                      else "missing" for key in ("q1", "median", "q3")]
            if metric not in names["end_to_end"]:
                fail(f"{where} is not in BENCHMARK.json")
            if not all(v is None or number(v) for v in values):
                fail(f"{where} needs numbers or null as median, q1 and q3")
            elif None not in values:
                ascending(f"{where} q1, median, q3", values)
        lacking = names["end_to_end"] - set(row["end_to_end"])
        if row["source"] == "measured" and lacking:
            fail(f"rows[{i}] is measured but lacks {sorted(lacking)}")
        for layer in set(row["per_layer"]) - names["per_layer"]:
            fail(f"rows[{i}].per_layer.{layer} is not in BENCHMARK.json")


# Snapshot store audit (docs/PERSISTENCE.md): the store's offline oracle.
# Violations are typed findings in the scrubber's vocabulary.

ENDIAN_TAG = 0x01020304
# meta, stats, rng, conditional, selected, admission
STATE_SECTION_IDS = (1, 2, 3, 4, 5, 6)

findings = []


def finding(path, detail, section="file", reason="mismatch"):
    findings.append({"path": path, "section": section, "reason": reason,
                     "detail": detail})
    fail(f"{path} [{section}/{reason}] {detail}")


def read_checked(path, expect_bytes, expect_crc):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        return finding(path, f"unreadable: {e}", reason="unreadable")
    if len(data) != expect_bytes:
        finding(path, f"size {len(data)} != manifest bytes {expect_bytes}",
                reason="size_mismatch")
    crc = zlib.crc32(data) & 0xFFFFFFFF
    if crc != expect_crc:
        finding(path, f"crc32 {crc:#010x} != manifest {expect_crc:#010x}",
                reason="crc_mismatch")
    return data


def check_header(path, data, magic, version):
    """Magic, little-endian tag and version; True when all three hold."""
    if not data.startswith(magic):
        finding(path, f"not {magic.decode()}", "header", "bad_magic")
        return False
    if len(data) < 20:
        finding(path, "truncated header", "header", "truncated")
        return False
    endian, found = struct.unpack_from("<II", data, 8)
    if endian != ENDIAN_TAG or found != version:
        finding(path, f"byte-order tag {endian:#010x}, version {found}; want "
                f"{ENDIAN_TAG:#010x}, {version}", "header", "malformed")
        return False
    return True


def check_state_bin(path, data):
    """Version 4, the only one the store reads, then a run of (id u32,
    len u64, crc u32, payload) section envelopes."""
    if not check_header(path, data, b"ENLDSNP1", 4):
        return
    (count,) = struct.unpack_from("<I", data, 16)
    if count != len(STATE_SECTION_IDS):
        return finding(path, f"section count {count} != "
                       f"{len(STATE_SECTION_IDS)}", "header", "malformed")
    offset = 20
    for section_id in STATE_SECTION_IDS:
        section = f"section-{section_id}"
        if offset + 16 > len(data):
            return finding(path, f"truncated before section {section_id}",
                           section, "truncated")
        sid, length, crc = struct.unpack_from("<IQI", data, offset)
        offset += 16
        if sid != section_id:
            return finding(path, f"section id {sid} where {section_id} "
                           "expected", section, "malformed")
        if offset + length > len(data):
            return finding(path, f"section {sid} payload truncated",
                           section, "truncated")
        if zlib.crc32(data[offset:offset + length]) & 0xFFFFFFFF != crc:
            finding(path, f"section {sid} payload fails its CRC", section,
                    "crc_mismatch")
        offset += length
    if offset != len(data):
        finding(path, f"{len(data) - offset} bytes after the last section",
                reason="malformed")


def load_manifest(path, schema):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        return finding(path, f"unreadable: {e}", "manifest", "unreadable")
    except ValueError as e:
        return finding(path, f"malformed JSON: {e}", "manifest", "malformed")
    if doc.get("schema") != schema:
        return finding(path, f"schema {doc.get('schema')!r} != {schema!r}",
                       "manifest", "malformed")
    return doc


def check_snapshot_dir(snap_dir, expect_seq):
    manifest = load_manifest(os.path.join(snap_dir, "MANIFEST.json"),
                             "enld-snapshot-manifest-v1")
    if manifest is None:
        return
    if int(manifest.get("seq", -1)) != expect_seq:
        finding(snap_dir, f"manifest seq {manifest.get('seq')} != directory "
                f"seq {expect_seq}", "manifest")
    listed = {entry["file"] for entry in manifest.get("files", [])}
    for required in sorted({"state.bin", "model.bin"} - listed):
        finding(snap_dir, f"manifest does not list {required}", "manifest",
                "missing")
    for entry in manifest.get("files", []):
        path = os.path.join(snap_dir, entry["file"])
        data = read_checked(path, int(entry["bytes"]), int(entry["crc32"]))
        if data is not None and entry["file"] == "state.bin":
            check_state_bin(path, data)
    for dataset in manifest.get("datasets", []):
        dataset_dir = os.path.join(snap_dir, dataset)
        if not os.path.isdir(dataset_dir):
            finding(snap_dir, f"listed dataset directory missing: {dataset}",
                    reason="missing")
            continue
        shards = load_manifest(os.path.join(dataset_dir, "manifest.json"),
                               "enld-dataset-manifest-v1")
        if shards is None:
            continue
        for entry in shards.get("shards", []):
            path = os.path.join(dataset_dir, entry["file"])
            data = read_checked(path, int(entry["bytes"]),
                                int(entry["crc32"]))
            if data is not None:
                check_header(path, data, b"ENLDSHD1", 1)
        rows = sum(int(entry["rows"]) for entry in shards.get("shards", []))
        if rows != int(shards.get("num_rows", -1)):
            finding(dataset_dir, f"shard rows total {rows} != num_rows "
                    f"{shards.get('num_rows')}", "geometry")


def snapshot_seq(name):
    if len(name) == 11 and name.startswith("snap-") and name[5:].isdigit():
        return int(name[5:])
    return None


@kind("snapshot", ("all", "json="))
def check_snapshot(doc, opts, root):
    if not os.path.isdir(root):
        exit_with(1, f"FAIL {root}: not a directory")
    current_path, current_seq = os.path.join(root, "CURRENT"), None
    try:
        with open(current_path, "r", encoding="utf-8") as f:
            current = f.read().strip()
        current_seq = snapshot_seq(current) or None  # seq 0 is no snapshot
        if current_seq is None:
            finding(current_path, f"malformed pointer {current!r}",
                    "pointer", "malformed")
        elif not os.path.isdir(os.path.join(root, current)):
            finding(current_path, f"points at missing directory {current}",
                    "pointer", "dangling")
            current_seq = None
    except OSError as e:
        finding(current_path, f"unreadable: {e}", "pointer", "unreadable")
    if opts.get("all"):
        targets = sorted(seq for seq in map(snapshot_seq, os.listdir(root))
                         if seq is not None)
    else:
        targets = [current_seq] if current_seq is not None else []
    for seq in targets:
        check_snapshot_dir(os.path.join(root, f"snap-{seq:06d}"), seq)
    if "json" in opts:
        report = {"schema": "enld-snapshot-audit-v1", "root": root,
                  "current_seq": current_seq or 0,
                  "audited": [f"snap-{seq:06d}" for seq in targets],
                  "clean": not findings, "findings": findings}
        try:
            with open(opts["json"], "w", encoding="utf-8") as f:
                f.write(json.dumps(report, indent=2) + "\n")
        except OSError as e:
            exit_with(1, f"FAIL cannot write {opts['json']}: {e}")


def main(argv):
    if len(argv) < 2 or argv[0] not in KINDS:
        exit_with(2, f"{__doc__}\nKinds: {', '.join(KINDS)}")
    kind, path = argv[0], argv[1]
    spec, rules, flags = KINDS[kind]
    opts = {}
    for arg in argv[2:]:
        name, eq, value = arg[2:].partition("=")
        integer = name in ("expect-requests", "min-detectors")
        if not arg.startswith("--") or name + eq not in flags \
                or (integer and not value.isdigit()):
            exit_with(2, f"check_report.py {kind}: bad argument {arg}; "
                      f"accepted: {' '.join('--' + f for f in flags)}")
        opts[name] = value if eq else True
    try:
        doc = spec and load(path)
        if spec is None or typed(doc, spec):
            rules(doc, opts, path)
    except (LookupError, TypeError, AttributeError, ValueError,
            ArithmeticError) as e:
        fail(f"malformed: {type(e).__name__}: {e}")
    for message in errors:
        print(f"FAIL {path}: {message}", file=sys.stderr)
    if errors:
        exit_with(3, f"{len(errors)} violation(s) in {path}")
    print(f"OK: {kind} {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
