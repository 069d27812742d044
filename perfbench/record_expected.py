#!/usr/bin/env python3
"""Rewrite ``expected.json``: the default-seed digests of every workload.

Run it from the repository root only on a commit whose seeded outputs are
known to be right (``python3 perfbench/record_expected.py``); ``run.py``
then fails any default-seed run whose outputs differ from these.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from catalog import WORKLOADS  # noqa: E402
from harness import WORK_DIR  # noqa: E402
from workloads import DEFAULT_SEED, make_workload  # noqa: E402


def main() -> None:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    expected = {}
    for name in WORKLOADS:
        workload = make_workload(name, WORK_DIR)
        expected[name] = {
            str(variant): workload.sweep(DEFAULT_SEED, variant, False, None).digests
            for variant in range(workload.variants)
        }
        print(f"{name}: {sum(map(len, expected[name].values()))} digests")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
