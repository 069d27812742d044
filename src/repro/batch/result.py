"""Structured outcomes of one run and of one replica-batched run.

:class:`RunResult` is what one replica of Algorithm 1 produced: its trace
and its LB reports.  The paper's figures are replica-averaged curves with
confidence bands; :class:`BatchResult` therefore keeps both layers: the
full per-replica :class:`RunResult` objects (each bit-identical to a solo
run with that replica's seed) and the cross-replica aggregates -- means and
normal-approximation confidence intervals over scalar outcomes, plus
replica-stacked and replica-averaged trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.lb.centralized import LBStepReport
from repro.simcluster.tracing import ClusterTrace
from repro.utils.stats import mean_confidence_interval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs is optional)
    from repro.obs.profiler import StageProfile

__all__ = ["BatchResult", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one run (or of one replica of a batch)."""

    #: Execution trace (iteration times, utilization, LB events).
    trace: ClusterTrace
    #: Reports of every LB step that was executed.
    lb_reports: List[LBStepReport] = field(default_factory=list)
    #: Name of the workload policy that was used.
    policy_name: str = ""
    #: Name of the trigger policy that was used.
    trigger_name: str = ""
    #: Wall-clock stage attribution of the run
    #: (:class:`~repro.obs.profiler.StageProfile`); ``None`` unless the
    #: runner was built with a profiler.
    profile: "Optional[StageProfile]" = None

    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        """Total virtual time of the run (seconds)."""
        return self.trace.total_time

    @property
    def num_lb_calls(self) -> int:
        """Number of LB invocations."""
        return self.trace.num_lb_calls

    @property
    def mean_utilization(self) -> float:
        """Time-weighted average PE utilization."""
        return self.trace.mean_utilization()

    def utilization_series(self) -> np.ndarray:
        """Per-iteration average PE utilization (Fig. 4b series)."""
        return self.trace.utilization_series()

    def summary(self) -> dict:
        """Plain-dictionary summary for experiment tables."""
        info = self.trace.summary()
        info.update(
            policy=self.policy_name,
            trigger=self.trigger_name,
        )
        return info


@dataclass
class BatchResult:
    """Per-replica results plus cross-replica aggregates of one batch run."""

    #: One :class:`RunResult` per replica, in seed order; replica ``r`` is
    #: bit-identical to a solo run with ``seeds[r]``.
    replicas: List[RunResult] = field(default_factory=list)
    #: The gossip/workload seed of every replica.
    seeds: Tuple = ()
    #: Per-stage wall-time attribution of the batched hot loop (all chunks
    #: merged), or ``None`` when the run was not profiled.
    profile: "Optional[StageProfile]" = None

    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        """Number of replicas in the batch."""
        return len(self.replicas)

    def __getitem__(self, replica: int) -> RunResult:
        return self.replicas[replica]

    def __iter__(self):
        return iter(self.replicas)

    # ------------------------------------------------------------------
    def total_times(self) -> np.ndarray:
        """Per-replica total virtual time (seconds)."""
        return np.asarray([r.total_time for r in self.replicas], dtype=float)

    def lb_calls(self) -> np.ndarray:
        """Per-replica number of LB invocations."""
        return np.asarray([r.num_lb_calls for r in self.replicas], dtype=int)

    def mean_utilizations(self) -> np.ndarray:
        """Per-replica time-weighted average PE utilization."""
        return np.asarray([r.mean_utilization for r in self.replicas], dtype=float)

    def utilization_trajectories(self) -> np.ndarray:
        """``(R, iterations)`` per-iteration utilization of every replica."""
        return np.stack([r.utilization_series() for r in self.replicas])

    def mean_utilization_trajectory(self) -> np.ndarray:
        """Replica-averaged per-iteration utilization (the Fig. 4b curve)."""
        return self.utilization_trajectories().mean(axis=0)

    def iteration_time_trajectories(self) -> np.ndarray:
        """``(R, iterations)`` per-iteration durations of every replica."""
        return np.stack(
            [r.trace.iteration_time_series() for r in self.replicas]
        )

    # ------------------------------------------------------------------
    def aggregate(self, confidence: float = 0.95) -> Dict[str, float]:
        """Cross-replica mean and CI half-width of the scalar outcomes.

        Keys: ``total_time`` / ``mean_utilization`` / ``lb_calls``, each
        with a ``*_ci`` companion (normal-approximation half-width at
        ``confidence``), plus ``replicas``.
        """
        time_mean, time_ci = mean_confidence_interval(
            self.total_times(), confidence=confidence
        )
        util_mean, util_ci = mean_confidence_interval(
            self.mean_utilizations(), confidence=confidence
        )
        calls_mean, calls_ci = mean_confidence_interval(
            self.lb_calls(), confidence=confidence
        )
        return {
            "replicas": self.num_replicas,
            "total_time": time_mean,
            "total_time_ci": time_ci,
            "mean_utilization": util_mean,
            "mean_utilization_ci": util_ci,
            "lb_calls": calls_mean,
            "lb_calls_ci": calls_ci,
        }

    def summary(self) -> Dict[str, object]:
        """Flat summary row: aggregates plus the seeds of the batch."""
        info = dict(self.aggregate())
        info["seeds"] = tuple(self.seeds)
        if self.replicas:
            info["policy"] = self.replicas[0].policy_name
            info["trigger"] = self.replicas[0].trigger_name
        return info
