#!/usr/bin/env python3
"""Compare two sets of bench_step results: parent against change.

    python3 stepbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result JSONs bench_step wrote with --out (run.py
puts them in .bench_build/results). Only untraced runs count. Runs pair up
by seed, in file-name order. For every workload and end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the share of
pairs the change won, and a verdict:

  improved    the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range
  regressed   the change's median is worse by more than the metric's bound
  unresolved  either side's spread (IQR / median) is wider than the bound,
              unless every change run beats every parent run
  no worse    otherwise

It also compares failed/attempted steps and the seed fingerprints (weights
CRC after a fixed number of steps). Exit status 1 on any regression or a
higher failed fraction.
"""
import glob
import json
import os
import statistics
import sys


def load_runs(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            result = json.load(f)
        if not result.get("trace"):
            runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, lower_is_better, bound):
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if lower_is_better else -1.0
    better = lambda a, b: sign * (a - b) < 0  # a better than b
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    win_frac = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    if win_frac >= 0.9 and better(cm, pm) and abs(cm - pm) > p3 - p1:
        result = "improved"
    elif worse_by > bound:
        result = "regressed"
    elif (pm and (p3 - p1) / abs(pm) > bound) or (cm and (c3 - c1) / abs(cm) > bound):
        every_better = all(better(c, p) for c in change for p in parent)
        result = "no worse" if every_better else "unresolved"
    else:
        result = "no worse"
    return (p1, pm, p3), (c1, cm, c3), win_frac, result


def failed_frac(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")
    with open(bench) as f:
        metrics = json.load(f)["end_to_end"]
    parent_runs, change_runs = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    bad = False
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent, change = parent_runs.get(workload, []), change_runs.get(workload, [])
        print("%s: %d parent runs, %d change runs" % (workload, len(parent), len(change)))
        if not parent or not change:
            print("  missing on one side")
            bad = True
            continue
        for m in metrics:
            name = m["name"]
            p_vals = [r["metrics"][name]["value"] for r in parent]
            c_vals = [r["metrics"][name]["value"] for r in change]
            (p1, pm, p3), (c1, cm, c3), wins, result = verdict(
                p_vals, c_vals, m["better"] == "lower", m["bound"])
            print("  %-18s parent %12.4f [%10.4f %10.4f]  change %12.4f "
                  "[%10.4f %10.4f] %-6s won %3.0f%%  %s"
                  % (name, pm, p1, p3, cm, c1, c3, m["unit"], 100 * wins, result))
            bad = bad or result == "regressed"
        pf, cf = failed_frac(parent), failed_frac(change)
        print("  %-18s parent %.6f  change %.6f%s" % (
            "failed_frac", pf, cf, "  regressed" if cf > pf else ""))
        bad = bad or cf > pf
        key = next((k for k in parent[0] if k.startswith("weights_crc_after")), None)
        by_seed = {r["seed"]: r.get(key) for r in parent}
        same = [by_seed.get(r["seed"]) == r.get(key) for r in change if r["seed"] in by_seed]
        if same:
            print("  fingerprints       %d of %d seeds identical" % (sum(same), len(same)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
