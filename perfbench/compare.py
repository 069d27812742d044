#!/usr/bin/env python3
"""Compare two benchmark result sets: one row per workload x metric.

A result set is the JSON-lines file that ``run.py --out`` (or ``suite.py``)
appends to.  Usage::

    python3 perfbench/compare.py parent.jsonl change.jsonl

For every workload and end-to-end metric the table shows both sides'
median and quartiles, the change of the medians (positive = better) and a
verdict from the bound in ``catalog.py``:

* ``unresolved`` -- either side's spread (quartile distance over median)
  exceeds the bound and the two sides' runs overlap;
* ``worse`` -- the change's median is worse by more than the bound;
* ``improved`` -- better by more than either side's spread, with the two
  sides' quartile ranges apart;
* ``same`` -- otherwise.

Below each workload follow the per-layer metrics (traced runs) whose
medians moved most.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from catalog import END_TO_END, per_layer

#: Per-layer rows shown under each workload.
LAYER_ROWS = 12


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (inf for a zero median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def load(path: Path) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """(workload, trace) -> metric -> values over the set's runs."""
    table: Dict[Tuple[str, int], Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for name, metric in record["metrics"].items():
            table[(record["workload"], int(record["trace"]))][name].append(metric["value"])
    return table


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    change = sign * (mn - mb) / mb
    separated = (
        min(sign * v for v in new) > max(sign * v for v in base)
        or max(sign * v for v in new) < min(sign * v for v in base)
    )
    if max(spread(base), spread(new)) > bound and not separated:
        return "unresolved"
    if change < -bound:
        return "worse"
    # Better by more than either side's spread, with the quartile ranges
    # apart: an A/A comparison of one commit must not read as a gain.
    (b1, _, b3), (n1, _, n3) = quartiles(base), quartiles(new)
    apart = min(sign * n1, sign * n3) > max(sign * b1, sign * b3)
    if change > max(spread(base), spread(new)) and apart:
        return "improved"
    return "same"


def _fmt(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:>11.5g} [{q1:.4g}, {q3:.4g}]"


def main() -> None:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("base", type=Path, help="result set of the parent")
    parser.add_argument("new", type=Path, help="result set of the change")
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    layers = [name for name, _, _ in per_layer()]
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    print(f"{'workload':<15} {'metric':<14} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8}  verdict")
    for workload in workloads:
        b, n = base.get((workload, 0), {}), new.get((workload, 0), {})
        for name, _, better, bound in END_TO_END:
            if not b.get(name) or not n.get(name):
                continue
            mb, mn = statistics.median(b[name]), statistics.median(n[name])
            delta = (mn - mb) / mb if mb else float("nan")
            print(f"{workload:<15} {name:<14} {_fmt(b[name]):>34} {_fmt(n[name]):>34} "
                  f"{delta:>+8.1%}  {verdict(b[name], n[name], better, bound)}")
        b, n = base.get((workload, 1), {}), new.get((workload, 1), {})
        moved = []
        for name in layers:
            if b.get(name) and n.get(name):
                mb, mn = statistics.median(b[name]), statistics.median(n[name])
                if mb:
                    moved.append(((mn - mb) / abs(mb), name, mb, mn))
        moved.sort(key=lambda row: -abs(row[0]))
        for delta, name, mb, mn in moved[:LAYER_ROWS]:
            print(f"{'':<15}   layer {name:<34} {mb:>11.5g} -> {mn:<11.5g} {delta:>+8.1%}")


if __name__ == "__main__":
    main()
