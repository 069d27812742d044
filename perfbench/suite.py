#!/usr/bin/env python3
"""Run every workload over several seeds, one fresh process per run.

Usage (from the repository root)::

    python3 perfbench/suite.py --seeds 0-9 --out results.jsonl
    python3 perfbench/suite.py --seeds 0-4 --workloads campaign --trace 1 --out t.jsonl

Runs execute one after another (never two at once), each as its own
``run.py`` process, and append their records to ``--out``.  The summary
gives, per workload and end-to-end metric, the median, the quartile spread
as a share of the median, and whether that spread stays below a third of
the metric's bound.  Feed two such files to ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List

from catalog import END_TO_END, RUN_SECONDS, WORKLOADS
from compare import load, quartiles, spread

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the benchmark over seeds and workloads.")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bad = 0
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                   "--trace", str(args.trace), "--out", str(args.out)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            ok = proc.returncode == 0 and result.get("correct") is True
            bad += not ok
            print(f"{workload:<15} seed {seed:>3}: exit {proc.returncode} "
                  f"correct={result.get('correct')} failed={result.get('failed')}", flush=True)
            if not ok:
                sys.stderr.write(proc.stderr[-2000:])

    if args.trace == 0:
        table = load(args.out)
        print(f"\n{'workload':<15} {'metric':<14} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
        for workload in args.workloads:
            metrics = table.get((workload, 0), {})
            for name, _, _, bound in END_TO_END:
                values = metrics.get(name, [])
                if not values:
                    continue
                q1, q2, q3 = quartiles(values)
                flag = "" if spread(values) < bound / 3 else "  <-- over"
                print(f"{workload:<15} {name:<14} {len(values):>3} {q2:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread(values):>8.2%} {bound / 3:>8.2%}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
