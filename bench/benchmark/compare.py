#!/usr/bin/env python3
"""Compares two sets of benchmark result files against BENCHMARK.json.

    python3 bench/benchmark/compare.py --base A1.json [A2.json ...] \
                                       --head B1.json [B2.json ...]

A result file is either a run.sh result (every workload) or one
origami_bench --out file (one workload). For every workload and end-to-end
metric, prints each side's median and quartiles, how many pairs
(base[i], head[i]) the head side wins (ties count for neither), and a
verdict against the metric's bound from BENCHMARK.json:

    ok          head's median is no worse than base's by more than the bound
    regressed   head's median is worse than base's by more than the bound
    unresolved  base's own spread (interquartile range / median) is wider
                than the bound, and not every head run beats every base run

Exits 1 when a metric regressed or a file reports a failed correctness
check or failed operations.
"""

import argparse
import json
import pathlib
import statistics
import sys

BENCHMARK_JSON = (pathlib.Path(__file__).resolve().parents[2] /
                  "BENCHMARK.json")


def load(paths):
    """Returns ({(workload, metric): [value per file]}, [broken runs])."""
    values = {}
    broken = []
    for path in paths:
        doc = json.loads(pathlib.Path(path).read_text())
        for run in doc.get("workloads", [doc]):
            if not run["correct"] or run["failed"]:
                broken.append(f"{path}: {run['workload']}")
            for name, metric in run["end_to_end"].items():
                values.setdefault((run["workload"], name), []).append(
                    metric["value"])
    return values, broken


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()

    spec = json.loads(BENCHMARK_JSON.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, base_broken = load(args.base)
    head, head_broken = load(args.head)

    failing = False
    for label in base_broken + head_broken:
        print(f"FAILED CHECKS: {label}")
        failing = True

    print(f"{'workload':<14} {'metric':<14} {'base median [q1, q3]':>38} "
          f"{'head median [q1, q3]':>38} {'change':>7} {'wins':>6} "
          f"{'bound':>5}  verdict")
    workloads = sorted({w for w, _ in base} & {w for w, _ in head})
    for workload in workloads:
        for name, metric in metrics.items():
            key = (workload, name)
            if key not in base or key not in head:
                continue
            b, h = base[key], head[key]
            bq1, bmed, bq3 = quartiles(b)
            hq1, hmed, hq3 = quartiles(h)
            base_col = f"{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]"
            head_col = f"{hmed:.6g} [{hq1:.6g}, {hq3:.6g}]"
            # sign * (new - old) < 0 means new is better.
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (hmed - bmed) / bmed
            wins = sum(1 for x, y in zip(b, h) if sign * (y - x) < 0)
            pairs = min(len(b), len(h))
            all_better = all(sign * (y - x) < 0 for x in b for y in h)
            spread = (bq3 - bq1) / bmed
            if spread > metric["bound"] and not all_better:
                verdict = f"unresolved (base spread {spread:.1%})"
            elif worse > metric["bound"]:
                verdict = "regressed"
                failing = True
            else:
                verdict = "ok"
            change = (hmed - bmed) / bmed
            print(f"{workload:<14} {name:<14} {base_col:>38} {head_col:>38} "
                  f"{change:>+7.1%} {wins:>3}/{pairs:<2} "
                  f"{metric['bound']:>5.0%}  {verdict}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
