"""A/B comparison of two sets of benchmark results (parent vs change).

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines ``perfbench/run.py --save FILE`` appends.
Runs are paired by workload and seed, in the order they were recorded.
Per workload and end-to-end metric the printer shows each side's
median and quartiles, the change in the median, and the share of pairs
the change wins (ties count for neither side).  From the traced runs it
prints the change in the median of every per-layer time, largest first,
so a change can show in which layer its saving appears.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def by_seed(records: List[dict], workload: str, trace: int) -> Dict[int, List[dict]]:
    out: Dict[int, List[dict]] = {}
    for record in records:
        if record["workload"] == workload and record["trace"] == trace:
            out.setdefault(record["seed"], []).append(record["result"]["metrics"])
    return out


def pairs(base: Dict[int, List[dict]], change: Dict[int, List[dict]]):
    for seed in sorted(set(base) & set(change)):
        yield from zip(base[seed], change[seed])


def values(runs: Dict[int, List[dict]], name: str) -> List[float]:
    return [run[name]["value"] for seed in sorted(runs) for run in runs[seed]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    base, change = load(args.base), load(args.change)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for label, records in (("base", base), ("change", change)):
        commits = sorted({r["env"].get("commit", "?") for r in records})
        print(f"{label}: {len(records)} results, commit {', '.join(commits)}")

    workloads = [w["name"] for w in spec["workloads"]]
    print(f"\n{'workload':<17} {'metric':<12} {'base q1/med/q3':>26} "
          f"{'change q1/med/q3':>26} {'delta':>8} {'wins':>9}")
    for workload in workloads:
        old, new = by_seed(base, workload, 0), by_seed(change, workload, 0)
        if not old or not new:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = quartiles(values(old, name)), quartiles(values(new, name))
            matched = list(pairs(old, new))
            sign = -1.0 if metric["better"] == "lower" else 1.0
            wins = sum(
                sign * (n[name]["value"] - o[name]["value"]) > 0 for o, n in matched
            )
            delta = (b[1] - a[1]) / a[1] if a[1] else float("nan")
            print(f"{workload:<17} {name:<12} "
                  f"{a[0]:>8.4g}/{a[1]:>8.4g}/{a[2]:>8.4g} "
                  f"{b[0]:>8.4g}/{b[1]:>8.4g}/{b[2]:>8.4g} "
                  f"{delta:>+8.1%} {wins:>3}/{len(matched):<5}")

    times = [m["name"] for m in spec["per_layer"] if m["unit"] == "s"]
    for workload in workloads:
        old, new = by_seed(base, workload, 1), by_seed(change, workload, 1)
        if not old or not new:
            continue
        rows = []
        for name in times:
            a = statistics.median(values(old, name))
            b = statistics.median(values(new, name))
            rows.append((b - a, name, a, b))
        print(f"\n{workload}: per-layer time, median of traced runs "
              f"(base -> change, s)")
        for delta, name, a, b in sorted(rows, key=lambda r: abs(r[0]), reverse=True):
            print(f"  {name:<44} {a:>9.4f} -> {b:>9.4f}  {delta:>+9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
