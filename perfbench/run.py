#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-lb --seed 3 --seconds 20 --trace 0

The workload runs closed-loop sweeps of public-API calls for ``--seconds``
host seconds, checks every simulated output (see ``README.md``) and prints
a metric table, a shape/environment stamp line and, as the last line, one
JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` cycles untraced, profiled and traced sweeps and reports the
per-layer metrics.  ``--out FILE`` also appends the full record (stamp
included) to a JSON-lines file that ``compare.py`` reads.

The program is imported from ``src/`` of the checkout the script lives in;
without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from catalog import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_program() -> bool:
    """Import ``repro`` from the checkout's ``src``; False when it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro

    return SRC.resolve() in Path(repro.__file__).resolve().parents


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full record to this JSONL file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not _import_program():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2

    from harness import execute

    execute(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
