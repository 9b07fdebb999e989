"""Summarize the runs kept under ``perfbench/.work/results``: for every
workload and metric, the median of the per-run values, their quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread (third minus
first quartile) as a share of the median.

    python3 perfbench/summarize.py [--trace 0|1]
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / ".work" / "results"


def collect(trace: int) -> dict:
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(RESULTS.glob(f"*-full-s*-trace{trace}.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        metrics = record["per_layer"] if trace else record["end_to_end"]
        for name, value in metrics.items():
            values[record["workload"]][name].append(value)
        values[record["workload"]]["failed"].append(record["failed"])
    summary = {}
    for workload, metrics in sorted(values.items()):
        summary[workload] = {}
        for name, xs in metrics.items():
            median = statistics.median(xs)
            row = {"n": len(xs), "median": median}
            if len(xs) >= 2:
                q1, _, q3 = statistics.quantiles(xs, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
            summary[workload][name] = row
    return summary


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    summary = collect(args.trace)
    for workload, metrics in summary.items():
        for name, row in metrics.items():
            spread = row.get("spread")
            print(f"{workload:<14} {name:<44} n={row['n']:<3} median {row['median']:.6g}"
                  + (f"  spread {spread:.4f}" if spread is not None else ""))


if __name__ == "__main__":
    main()
