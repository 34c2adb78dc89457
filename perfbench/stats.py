"""Arithmetic of the benchmark: percentiles, quartile spreads, self time and
unattributed time. Kept free of I/O so test_stats.py can check it on
hand-built inputs."""

import math
import statistics

# A failed or refused request counts as infinitely slow. JSON has no
# infinity, so a percentile that lands on a failure is reported as this.
FAILED_MS = 1e9


def percentile(values, q):
    """Nearest rank: the smallest sample with at least a share q of the
    samples at or below it, i.e. the ceil(q * n)-th smallest. It is always
    a measured value, and an infinite (failed) sample is infinite."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def highest_supported_percentile(n, beyond=10):
    """The highest percentile with at least `beyond` samples above it, as a
    fraction (0.9 for n = 100), or None when n <= beyond."""
    if n <= beyond:
        return None
    return 1.0 - beyond / n


def latencies_with_failures(requests, start_key):
    """Per-request latency in ms from `start_key` to completion; a failed
    request is infinitely slow."""
    return [
        (r["done"] - r[start_key]) * 1e3 if r["ok"] else math.inf
        for r in requests
    ]


def finite_or_cap(value):
    return FAILED_MS if math.isinf(value) else value


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) with Python's default
    statistics.quantiles method, the one the acceptance check uses."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median != 0 else math.inf
    return median, q1, q3, spread


def f1_score(tp, fp, fn):
    """2TP / (2TP + FP + FN); None when there is nothing to find and
    nothing was flagged."""
    if tp + fp + fn == 0:
        return None
    return 2.0 * tp / (2.0 * tp + fp + fn)


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def span_self_times(spans):
    """Self time of every span: its duration minus the part of it its
    children cover. `spans` are dicts with start, end and parent (an index
    into the list, -1 for a root)."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] >= 0:
            child_interval = (span["start"], span["end"])
            children[span["parent"]].append(child_interval)
    return [
        (s["end"] - s["start"]) - covered(s["start"], s["end"], children[i])
        for i, s in enumerate(spans)
    ]


def tree_self_time(nodes, name, family):
    """Summed self time of the aggregated span-tree nodes called `name`:
    each node's total minus the totals of its direct children whose names
    are in `family`. Children outside the family (another layer's spans)
    stay inside. `nodes` are dicts with path ('>'-joined names) and
    total_s; sibling spans of one thread never overlap, so the children's
    totals are the time they cover."""
    totals = {n["path"]: n["total_s"] for n in nodes}
    result = 0.0
    for path, total in totals.items():
        if path.split(">")[-1] != name:
            continue
        inner = sum(
            child_total
            for child_path, child_total in totals.items()
            if child_path.startswith(path + ">")
            and ">" not in child_path[len(path) + 1:]
            and child_path.split(">")[-1] in family
        )
        result += total - inner
    return result


def unattributed(mean_latency, layer_means):
    """Mean request latency minus the mean per-request time of every layer
    that lies on the request path; what no layer accounts for."""
    return mean_latency - sum(layer_means)
