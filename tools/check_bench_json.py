#!/usr/bin/env python3
"""Checks bench JSON reports against the one schema every bench writes.

    tools/check_bench_json.py BENCH_pipeline.json BENCH_policy_faceoff.json ...

Each report must hold exactly the keys "bench", "config", "host" and
"results", and a non-empty "results" whose rows all share one key set. When
the bench also writes a CSV, which must sit beside the report, the key set
must equal the CSV header, and the rows must equal the CSV's rows cell for
cell: numbers as the CSV printed them, null where the CSV printed a
non-finite number. Exits 1 naming every report that fails.
"""

import csv
import json
import os
import sys

# The CSV each bench writes beside its report; None for a report without one.
CSV_OF = {
    "pipeline": None,
    "async_commit": "fig12_async_commit.csv",
    "kv_commit": None,
    "policy_faceoff": "fig13_policy_faceoff.csv",
    "saturation": "fig14_saturation.csv",
    "workload_families": "fig15_workload_families.csv",
}
KEYS = {"bench", "config", "host", "results"}
NON_FINITE = {"nan", "-nan", "inf", "-inf"}


def problems(path):
    with open(path) as f:
        # Keep numbers as the text the bench printed, to compare with the CSV.
        report = json.load(f, parse_int=str, parse_float=str)
    if not isinstance(report, dict) or set(report) != KEYS:
        keys = sorted(report) if isinstance(report, dict) else report
        return [f"top-level keys are {keys}, want {sorted(KEYS)}"]
    rows = report["results"]
    if not isinstance(rows, list) or not rows:
        return ["results is empty"]
    if not all(isinstance(r, dict) for r in rows):
        return ["a result is not an object"]
    keys = list(rows[0])
    if any(list(r) != keys for r in rows):
        return ["results rows do not share one key set"]
    bench = report["bench"]
    if bench not in CSV_OF:
        return [f"unknown bench '{bench}'"]
    if CSV_OF[bench] is None:
        return []

    csv_path = os.path.join(os.path.dirname(path), CSV_OF[bench])
    with open(csv_path, newline="") as f:
        table = list(csv.reader(f))
    header, body = table[0], table[1:]
    if keys != header:
        return [f"results keys {keys} differ from {csv_path}'s header {header}"]
    if len(rows) != len(body):
        return [f"{len(rows)} results for {len(body)} rows in {csv_path}"]
    out = []
    for i, (row, cells) in enumerate(zip(rows, body)):
        for key, cell in zip(header, cells):
            value = row[key]
            same = cell in NON_FINITE if value is None else value == cell
            if not same:
                out.append(f"row {i} {key}: {value!r} in the report, "
                           f"{cell!r} in {csv_path}")
    return out


def main(paths):
    if not paths:
        print("usage: tools/check_bench_json.py BENCH_*.json", file=sys.stderr)
        return 2
    failed = 0
    for path in paths:
        found = problems(path)
        for p in found:
            print(f"{path}: {p}", file=sys.stderr)
        failed += bool(found)
        if not found:
            print(f"{path}: schema OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
