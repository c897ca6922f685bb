#!/usr/bin/env python3
"""Compare two sets of benchmark records (e.g. parent and change).

Usage:

    python3 perfbench/compare.py PARENT_RECORDS_DIR CHANGE_RECORDS_DIR

Each directory holds the JSON records run.py writes (one per run). For
every workload and end-to-end metric the script prints each side's
median and quartile spread, the change in the median, and a verdict
against the metric's bound in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than the bound
  unresolved  the parent's own spread is wider than the bound
  ok          otherwise

Per-layer metrics are printed with their medians only; they have no bound.
Exits 1 when any verdict is `worse` or any record reports a failed check.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """(workload, metric) -> values, plus whether every record was correct."""
    values = defaultdict(list)
    all_correct = True
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        all_correct &= record["correct"] and record["failed"] == 0
        for metric in record["metrics"]:
            values[(record["workload"], metric["name"])].append(metric["value"])
    return values, all_correct


def spread(values):
    """Median and (q3 - q1) / median, as the benchmark's acceptance uses."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parent, parent_ok = load(sys.argv[1])
    change, change_ok = load(sys.argv[2])
    failed = not (parent_ok and change_ok)
    if failed:
        print("some records report a failed output check")

    print(f"{'workload':14} {'metric':30} {'parent':>12} {'spread':>7} "
          f"{'change':>12} {'spread':>7} {'delta':>8}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        p_med, p_spread = spread(parent[key])
        c_med, c_spread = spread(change[key])
        delta = (c_med - p_med) / p_med if p_med else 0.0
        verdict = ""
        if name in bounds:
            metric = bounds[name]
            worse = delta if metric["better"] == "lower" else -delta
            if worse > metric["bound"]:
                verdict = "worse"
                failed = True
            elif p_spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
        print(f"{workload:14} {name:30} {p_med:12.6g} {p_spread:7.3f} "
              f"{c_med:12.6g} {c_spread:7.3f} {delta:+8.3f}  {verdict}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
