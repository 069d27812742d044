"""Names, units, directions and bounds of every benchmark metric.

The single source of ``BENCHMARK.json``: ``python3 perfbench/catalog.py``
rewrites it at the repository root, and ``run.py`` checks that a run emits
exactly the names listed here.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

RUN_SECONDS = 20

#: Workload name -> why it is in the benchmark (one sentence).
WORKLOADS: Dict[str, str] = {
    "erosion-fig4": (
        "The paper's Fig-4 erosion sweep (P 32/64, 1-3 strong rocks, standard vs ULBA "
        "on the same seeds), where application dynamics, not gossip or LB, dominate."
    ),
    "large-p-gossip": (
        "Solo synthetic-hotspot at P=1024 on the dense and the sparse gossip board, "
        "where one gossip round is nearly all of every iteration."
    ),
    "batch-lb": (
        "Session.run_batch at P=64, R=16 without gossip, standard and ULBA batches, "
        "where the per-replica LB step is nearly all of the loop."
    ),
    "campaign": (
        "run_campaign over the default 72-cell grid with 2 workers and JSONL "
        "persistence, the only workload exposing dispatch, IPC and persistence."
    ),
}

#: End-to-end metrics: (name, unit, better, bound).
END_TO_END = [
    # On a shared 2-vCPU VM, memory-bound work (the dense P=1024 gossip
    # round most) drifts by +-20 % over minutes, so run medians get the
    # widest bound allowed, 0.25.
    ("sim_it_per_s", "it/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

STAGES = (
    "compute_step",
    "advance",
    "stripe_sum",
    "wir_update",
    "gossip_round",
    "lb_decide",
    "lb_apply",
)

#: Span timings, reported as ``.p50`` / ``.tail`` (seconds) and ``.n``
#: (count): metric -> (span name in ``tracing.py``, use self time).
LAYER_TIMINGS: Dict[str, Tuple[str, bool]] = {
    "simcluster.gossip_select_s": ("gossip_select", False),
    "simcluster.gossip_merge_s": ("gossip_step", True),
    "partitioning.partition_s": ("partition", False),
    "simcluster.lb_charge_s": ("lb_charge", False),
    "lb.policy_decide_s": ("policy_decide", False),
    "lb.overload_count_s": ("overload_count", False),
    "lb.execute_self_s": ("lb_execute", True),
    "scenarios.build_s": ("scenario_build", False),
}


def _timing(prefix: str) -> List[tuple]:
    return [
        (f"{prefix}.p50", "s", "lower"),
        (f"{prefix}.tail", "s", "lower"),
        (f"{prefix}.n", "count", "higher"),
    ]


def per_layer() -> List[tuple]:
    """Per-layer metrics: (name, unit, better)."""
    metrics: List[tuple] = []
    for stage in STAGES:
        metrics += _timing(f"stage.{stage}_s")
        metrics.append((f"stage.{stage}_share", "frac", "lower"))
    metrics.append(("stage.uncovered_share", "frac", "lower"))
    for name in LAYER_TIMINGS:
        metrics += _timing(name)
    metrics += [
        ("lb.calls", "count", "lower"),
        ("lb.call_frac", "frac", "lower"),
        ("campaign.worker_compute_s", "s", "lower"),
        ("campaign.worker_busy_frac", "frac", "higher"),
        ("campaign.batches", "count", "lower"),
        ("campaign.faults", "count", "lower"),
        ("campaign.quarantined", "count", "lower"),
        ("campaign.rows_bytes", "bytes", "lower"),
        ("obs.profile_overhead_frac", "frac", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("failed_frac", "frac", "lower"),
        ("paper.ulba_gain_pct", "%", "higher"),
    ]
    return metrics


def units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit of the metrics a run must emit."""
    if trace:
        return {name: unit for name, unit, _ in per_layer()}
    return {name: unit for name, unit, _, _ in END_TO_END}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer()
        ],
    }


if __name__ == "__main__":
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    (ROOT / "BENCHMARK.json").write_text(text)
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
