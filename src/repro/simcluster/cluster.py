"""The :class:`VirtualCluster` facade.

A :class:`VirtualCluster` bundles the PEs, their communicator and the trace
recorder, and offers the small amount of orchestration the SPMD-style
applications of this repository need:

* ``compute_step(loads)`` -- charge one bulk-synchronous compute phase where
  PE ``p`` executes ``loads[p]`` FLOP and everyone then synchronises (the
  iteration time is the maximum PE time, as in the paper's model);
* ``charge_lb_step(...)`` -- charge the cost of a load-balancing step to all
  PEs (partitioning at the root, broadcast, migration);
* snapshots of per-PE busy time used by the utilization trace of Figure 4b.

The per-PE state lives in flat NumPy vectors
(:class:`~repro.simcluster.pe.PEStateArrays`), so a compute step is a
handful of array operations -- one division, two in-place adds and a max --
instead of a Python loop over PE objects.  ``cluster.pes`` exposes thin
:class:`~repro.simcluster.pe.ProcessingElementView` objects over that state
for API compatibility with code addressing individual PEs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.simcluster.comm import CommCostModel, SimCommunicator
from repro.simcluster.pe import PEStateArrays, ProcessingElementView
from repro.simcluster.tracing import ClusterTrace
from repro.utils.validation import check_non_negative, check_positive, check_positive_int

__all__ = ["StepResult", "VirtualCluster"]


@dataclass(frozen=True)
class StepResult:
    """Timing of one bulk-synchronous compute step."""

    #: Virtual duration of the step (time of the slowest PE + sync cost).
    elapsed: float
    #: Per-PE compute durations for the step.
    pe_times: tuple
    #: Timestamp at which the step completed (all PEs synchronised).
    completed_at: float

    @property
    def average_utilization(self) -> float:
        """Mean ratio of per-PE compute time to the step duration."""
        if self.elapsed <= 0.0:
            return 1.0
        return float(np.mean(np.asarray(self.pe_times) / self.elapsed))


class VirtualCluster:
    """A fixed-size group of simulated PEs with a communicator and a trace."""

    def __init__(
        self,
        num_pes: int,
        *,
        pe_speed: float = 1.0e9,
        cost_model: Optional[CommCostModel] = None,
        state: Optional[PEStateArrays] = None,
    ) -> None:
        check_positive_int(num_pes, "num_pes")
        check_positive(pe_speed, "pe_speed")
        if state is not None:
            # Externally owned state (e.g. a replica row view of a batched
            # (R, P) PEStateArrays): the cluster charges its costs into the
            # shared arrays while keeping its own trace and comm counters.
            if state.replicas is not None or state.size != num_pes:
                raise ValueError(
                    "state must be an unbatched PEStateArrays with "
                    f"{num_pes} PEs"
                )
            self.state = state
        else:
            self.state = PEStateArrays(num_pes, pe_speed)
        self.pes: List[ProcessingElementView] = [
            ProcessingElementView(self.state, r) for r in range(num_pes)
        ]
        self.comm = SimCommunicator(self.pes, cost_model)
        self.trace = ClusterTrace(num_pes=num_pes)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of PEs."""
        return self.state.size

    @property
    def pe_speed(self) -> float:
        """Speed of the (homogeneous) PEs in FLOP/s."""
        return self.state.speed

    @property
    def now(self) -> float:
        """Common virtual time (all clocks agree outside of a compute phase)."""
        return self.state.now()

    def busy_times(self) -> np.ndarray:
        """Cumulative per-PE busy time, in rank order."""
        return self.state.busy_time.copy()

    # ------------------------------------------------------------------
    def compute_step(
        self,
        loads_flop: Sequence[float],
        *,
        iteration: Optional[int] = None,
        sync_bytes: float = 8.0,
    ) -> StepResult:
        """Run one bulk-synchronous compute phase.

        Parameters
        ----------
        loads_flop:
            FLOP to execute on each PE (length ``P``); an ``ndarray`` is
            used as-is, without copying.
        iteration:
            Iteration index recorded in the trace; omit to skip tracing.
        sync_bytes:
            Payload of the closing synchronisation collective (the erosion
            application exchanges halo columns and per-stripe workloads at
            the end of every iteration).
        """
        loads = np.asarray(loads_flop, dtype=float)
        if loads.shape != (self.size,):
            raise ValueError(
                f"loads_flop must have length {self.size}, got {loads.shape}"
            )
        if (loads < 0).any():
            raise ValueError("loads_flop must all be >= 0")

        state = self.state
        start = state.now()
        pe_times = loads / state.speed
        state.clock += pe_times
        state.busy_time += pe_times
        # Closing collective: every iteration of the paper's application ends
        # with an exchange of boundary data / workload metrics.
        cost = self.comm.cost_model.collective(self.size, sync_bytes)
        end = state.synchronize(cost)
        self.comm.num_collectives += 1
        self.comm.comm_time += cost
        elapsed = end - start

        times_list = pe_times.tolist()
        result = StepResult(
            elapsed=elapsed, pe_times=tuple(times_list), completed_at=end
        )
        if iteration is not None:
            self.trace.record_iteration(
                iteration=iteration,
                elapsed=elapsed,
                pe_compute_times=times_list,
                timestamp=end,
            )
        return result

    # ------------------------------------------------------------------
    def charge_lb_step(
        self,
        *,
        iteration: int,
        partition_seconds: float = 0.0,
        migration_bytes_per_pe: "Sequence[float] | float" = 0.0,
        root: int = 0,
    ) -> float:
        """Charge the virtual cost of one load-balancing step.

        The centralized LB technique of Algorithm 2 consists of: gathering
        the per-PE ``alpha`` values at the root, computing the partition on
        the root (``partition_seconds``), broadcasting it, and migrating the
        data.  Migration is modelled as a personalised exchange whose per-PE
        volume is ``migration_bytes_per_pe`` (scalar or one entry per PE).
        This is the ``k = 1`` case of :meth:`charge_lb_steps`.

        Returns the total virtual duration of the LB step (which is also the
        amount added to every PE's ``lb_time``).
        """
        check_non_negative(partition_seconds, "partition_seconds")
        if not 0 <= root < self.size:
            raise ValueError(f"root rank {root} outside [0, {self.size})")
        volumes = np.asarray(migration_bytes_per_pe, dtype=float)
        if volumes.shape not in ((), (self.size,)):
            raise ValueError(
                "migration_bytes_per_pe must be a scalar or have one "
                f"entry per PE ({self.size})"
            )
        if (volumes < 0).any():
            raise ValueError("migration volumes must all be >= 0")
        return VirtualCluster.charge_lb_steps(
            [self],
            iterations=[iteration],
            partition_seconds=[partition_seconds],
            migration_bytes=np.broadcast_to(volumes, (1, self.size)),
            roots=[root],
        )[0]

    @staticmethod
    def charge_lb_steps(
        clusters: "Sequence[VirtualCluster]",
        *,
        iterations: Sequence[int],
        partition_seconds: Sequence[float],
        migration_bytes: np.ndarray,
        roots: Sequence[int],
    ) -> List[float]:
        """Charge one load-balancing step to each of ``k`` equally sized clusters.

        Cluster ``i`` pays the step of :meth:`charge_lb_step` with
        ``iterations[i]``, ``partition_seconds[i]``, row ``i`` of the ``(k, P)``
        ``migration_bytes`` and ``roots[i]``.  The clocks advance as ``(k,)``
        vectors, then are written back per cluster: every clock, trace and
        counter equals that of ``k`` separate calls.  Returns the durations.
        The clusters must not share a state, or the steps would overlap.
        """
        if len({id(cluster.state) for cluster in clusters}) < len(clusters):
            raise ValueError("charge_lb_steps needs clusters with distinct states")
        size = clusters[0].size
        max_volumes = np.max(migration_bytes, axis=1).tolist()
        # Gather the alphas at the root, broadcast the partition, migrate the
        # data (a personalised exchange bounded by the largest volume).
        gather, bcast, migrate = np.array(
            [
                [model.collective(size, nbytes) for nbytes in (8.0, 8.0 * size, volume)]
                for model, volume in zip((c.comm.cost_model for c in clusters), max_volumes)
            ]
        ).T
        clocks = np.stack([cluster.state.clock for cluster in clusters])
        start = clocks.max(axis=1)
        clocks[:] = (start + gather)[:, None]
        clocks[np.arange(len(clusters)), roots] += partition_seconds  # root partitions
        end = (clocks.max(axis=1) + bcast) + migrate
        durations = (end - start).tolist()
        for cluster, iteration, timestamp, cost, comm_cost in zip(
            clusters, iterations, end.tolist(), durations, ((gather + bcast) + migrate).tolist()
        ):
            cluster.state.clock[:] = timestamp
            cluster.state.lb_time += cost
            cluster.comm.num_collectives += 3
            cluster.comm.comm_time += comm_cost
            cluster.trace.record_lb_event(iteration=iteration, cost=cost, timestamp=timestamp)
        return durations

    # ------------------------------------------------------------------
    def synchronize(self) -> float:
        """Barrier: align every PE clock; returns the common timestamp."""
        return self.state.synchronize()

    def reset(self) -> None:
        """Reset clocks, accounting and traces (between repetitions)."""
        self.state.reset()
        self.trace = ClusterTrace(num_pes=self.size)
        self.comm.num_collectives = 0
        self.comm.num_messages = 0
        self.comm.comm_time = 0.0
