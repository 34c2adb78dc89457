#!/usr/bin/env python3
"""Steadiness check: runs the benchmark command from BENCHMARK.json once
per seed and reports, for every end-to-end metric, the median and the
quartile spread (q3 - q1) / median against the metric's bound.

    python3 perfbench/spread.py --workload stream --seeds 1-10 [--sets 2]

A spread at or above the bound fails; one above a third of the bound is
flagged as not yet steady. With --sets 2 the seeds are run twice and each
metric's second median must not be worse than the first by more than the
bound. Run from the checkout root.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(benchmark, workload, seed, trace):
    command = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=HERE.parent, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"seed {seed}: benchmark exited {done.returncode}")
    return json.loads(lines[-1])


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    seeds = parse_seeds(args.seeds)

    medians = []
    failed = False
    for set_index in range(args.sets):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds:
            result = run_once(benchmark, args.workload, seed, 0)
            if not result["correct"] or result["failed"]:
                failed = True
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"set {set_index + 1} seed {seed}: " + "  ".join(
                f"{m['name']}={values[m['name']][-1]:.4g}" for m in metrics),
                flush=True)
        print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        set_medians = {}
        for m in metrics:
            median, q1, q3, spread = stats.quartile_spread(values[m["name"]])
            set_medians[m["name"]] = median
            verdict = "ok"
            if spread > m["bound"] / 3:
                verdict = "NOT STEADY (above a third of the bound)"
            if spread > m["bound"]:
                verdict = "FAIL"
                if m["name"] != "setup_s":
                    failed = True
            print(f"{m['name']:18s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {m['bound']:6.3f} {verdict}")
        medians.append(set_medians)

    for later in medians[1:]:
        for m in metrics:
            drift = worse_by(medians[0][m["name"]], later[m["name"]],
                             m["better"])
            verdict = "FAIL" if drift > m["bound"] else "ok"
            if drift > m["bound"]:
                failed = True
            print(f"median drift {m['name']:18s} {drift:+.4f} "
                  f"(bound {m['bound']}) {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
