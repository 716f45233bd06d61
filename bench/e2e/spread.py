#!/usr/bin/env python3
"""Spread report for `run.sh --repeat K`.

Reads the JSON result lines DIR/<workload>.<k>.json that run.sh collected
and prints, per workload and metric, the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the interquartile spread and the
largest deviation from the median, both as a share of the median. With
BENCHMARK.json given, each spread is compared with a third of the
metric's bound, the margin the bound is derived from.

Usage: spread.py DIR [BENCHMARK.json]
"""
import glob
import json
import os
import statistics
import sys


def main():
    results = {}
    for path in sorted(glob.glob(os.path.join(sys.argv[1], "*.json"))):
        workload = os.path.basename(path).rsplit(".", 2)[0]
        with open(path) as f:
            text = f.read().strip()
        if text:
            results.setdefault(workload, []).append(json.loads(text))
    bounds = {}
    if len(sys.argv) > 2 and os.path.exists(sys.argv[2]):
        with open(sys.argv[2]) as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    print("%-14s %-14s %12s %12s %12s %8s %8s %s" %
          ("workload", "metric", "median", "q1", "q3", "iqr/med",
           "max/med", "vs bound/3"))
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            iqr = (q3 - q1) / median if median else float("nan")
            worst = max(abs(v - median) for v in values) / median \
                if median else float("nan")
            verdict = ""
            if name in bounds:
                verdict = "ok" if iqr < bounds[name] / 3 else "WIDE"
            print("%-14s %-14s %12.5g %12.5g %12.5g %8.3f %8.3f %s" %
                  (workload, name, median, q1, q3, iqr, worst, verdict))
        print("%-14s %-14s %12.5g   (%d of %d attempted, %d runs, "
              "correct: %s)" %
              (workload, "failed_frac", failed / max(1, attempted), failed,
               attempted, len(runs), all(r["correct"] for r in runs)))


if __name__ == "__main__":
    main()
