"""The iterative application skeleton (Algorithm 1) on the virtual cluster.

:class:`IterativeRunner` is the reproduction's equivalent of the MPI main
loop of the paper's evaluation application: it executes a *striped*
application (anything implementing :class:`StripedApplication`) for a fixed
number of iterations, charging per-PE compute time on the virtual cluster,
maintaining the WIR database, tracking degradation and invoking the
centralized load balancer (Algorithm 2) when the trigger policy fires.

The same runner serves the standard method and ULBA -- only the injected
policies differ -- which mirrors the paper's statement that both
implementations share the same centralized LB technique.

The loop itself lives in :class:`repro.batch.BatchRunner`, which executes
``R`` seeded instances in one vectorized pass over ``(R, P)`` state; a solo
run is a one-replica batch on the caller's cluster.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profiler import StageProfiler

from repro.batch.result import RunResult
from repro.batch.runner import BatchRunner, StripedApplication
from repro.lb.adaptive import DegradationTrigger
from repro.lb.base import TriggerPolicy, WorkloadPolicy
from repro.lb.centralized import LBStepReport
from repro.lb.standard import StandardPolicy
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.gossip import GossipConfig
from repro.utils.rng import SeedLike
from repro.utils.validation import check_non_negative, check_positive, check_positive_int

__all__ = [
    "StripedApplication",
    "RunResult",
    "IterativeRunner",
    "initial_lb_cost_prior",
]


def initial_lb_cost_prior(
    total_flop: float, num_pes: int, pe_speed: float
) -> float:
    """Standard LB-cost prior used before the first measured LB step.

    Half of one perfectly balanced per-PE iteration time: large enough to
    keep the degradation trigger from firing on noise in the first
    iterations, small enough not to postpone the first genuine LB call.
    Shared by the erosion experiments, the scenario layer and the campaign
    runner so they all assume the same prior.
    """
    check_non_negative(total_flop, "total_flop")
    check_positive_int(num_pes, "num_pes")
    check_positive(pe_speed, "pe_speed")
    return 0.5 * total_flop / num_pes / pe_speed


class IterativeRunner:
    """Algorithm 1 driver binding an application to the virtual cluster.

    A one-replica :class:`~repro.batch.BatchRunner` (:attr:`engine`) running
    on ``cluster``.  The keyword parameters are the engine's, for one
    replica: ``workload_policy`` / ``trigger_policy`` (default: the
    standard policy and the Zhai degradation trigger of the paper's
    numerical study), ``initial_lb_cost_estimate`` and the gossip ``seed``;
    ``use_gossip``, ``gossip_config``, ``wir_smoothing``,
    ``partition_flop_per_column``, ``bytes_per_load_unit`` and ``profiler``
    pass through unchanged.  The observers see scalars:
    ``on_iteration(iteration, elapsed)`` after every completed iteration
    (the session facade's event bus plugs in here) and
    ``on_lb_step(iteration, report)`` after every executed LB step.

    Repeated :meth:`run` calls continue where the previous one stopped: on
    the cluster's clocks and trace, and on the partition, WIR and
    degradation state of :attr:`engine`.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        application: StripedApplication,
        *,
        workload_policy: Optional[WorkloadPolicy] = None,
        trigger_policy: Optional[TriggerPolicy] = None,
        use_gossip: bool = True,
        gossip_config: Optional[GossipConfig] = None,
        wir_smoothing: float = 0.5,
        initial_lb_cost_estimate: float = 0.0,
        partition_flop_per_column: float = 50.0,
        bytes_per_load_unit: float = 800.0,
        seed: SeedLike = None,
        on_iteration: Optional[Callable[[int, float], None]] = None,
        on_lb_step: Optional[Callable[[int, LBStepReport], None]] = None,
        profiler: "Optional[StageProfiler]" = None,
    ) -> None:
        self.cluster = cluster
        self.application = application
        self.workload_policy = workload_policy or StandardPolicy()
        self.trigger_policy = trigger_policy or DegradationTrigger()
        # The engine reports per-replica arrays and replica indices.
        each_iteration = None if on_iteration is None else (
            lambda it, elapsed: on_iteration(it, float(elapsed[0]))
        )
        each_lb_step = None if on_lb_step is None else (
            lambda replica, it, report: on_lb_step(it, report)
        )
        #: The engine; partition, WIR and degradation state live here as
        #: replica 0.
        self.engine = BatchRunner(
            cluster.size,
            [application],
            seeds=[seed],
            cluster=cluster,
            workload_policies=[self.workload_policy],
            trigger_policies=[self.trigger_policy],
            use_gossip=use_gossip,
            gossip_config=gossip_config,
            wir_smoothing=wir_smoothing,
            initial_lb_cost_estimates=initial_lb_cost_estimate,
            partition_flop_per_column=partition_flop_per_column,
            bytes_per_load_unit=bytes_per_load_unit,
            profiler=profiler,
            on_iteration=each_iteration,
            on_lb_step=each_lb_step,
        )

    def run(self, iterations: int) -> RunResult:
        """Execute ``iterations`` application iterations (Algorithm 1)."""
        batch = self.engine.run(iterations)
        result = batch.replicas[0]
        result.profile = batch.profile
        return result
