"""Centralized load-balancing technique (Algorithm 2).

The paper's evaluation implements its stripe partitioner as a *centralized*
LB technique: the per-PE ``alpha`` requests are gathered on a single PE, the
stripe boundaries are computed there from the per-column workloads, the
partition is broadcast, and the cells are migrated accordingly.  The
:class:`CentralizedLoadBalancer` reproduces that flow on the virtual
cluster, charging each phase's virtual cost, and works with any
:class:`~repro.lb.base.WorkloadPolicy` (standard or ULBA) -- the policy only
changes the target shares handed to the partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.lb.base import LBContext, LBDecision, WorkloadPolicy
from repro.partitioning.stripe import StripePartition, StripePartitioner
from repro.simcluster.cluster import VirtualCluster
from repro.utils.validation import check_non_negative

__all__ = ["LBStepReport", "CentralizedLoadBalancer"]


@dataclass(frozen=True)
class LBStepReport:
    """Everything that happened during one centralized LB step."""

    #: Iteration at which the step was executed.
    iteration: int
    #: The workload policy's decision (target shares, alphas, ...).
    decision: LBDecision
    #: The new stripe partition.
    partition: StripePartition
    #: Workload (in column-load units) that changed owner.
    migrated_load: float
    #: Virtual cost of the LB step in seconds (partitioning + broadcast +
    #: migration).
    cost: float


class CentralizedLoadBalancer:
    """Centralized stripe load balancer bound to a virtual cluster.

    Parameters
    ----------
    cluster:
        The virtual cluster the application runs on.
    policy:
        Workload policy (standard or ULBA).
    root:
        Rank performing the partitioning (0 in the paper).
    partition_flop_per_column:
        Cost, in FLOP on the root PE, of computing the stripe boundaries per
        domain column (models the prefix-sum pass of the partitioner).
    bytes_per_load_unit:
        Migration volume charged per unit of migrated column load.  One load
        unit corresponds to one original fluid cell; the default of 800
        bytes models the state a CFD-style cell carries (tens of doubles
        plus metadata), so that migrating a significant fraction of a stripe
        costs on the order of one iteration -- the regime of Table II, where
        the LB cost is 10 %-300 % of an iteration.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        policy: WorkloadPolicy,
        *,
        root: int = 0,
        partition_flop_per_column: float = 50.0,
        bytes_per_load_unit: float = 800.0,
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        if not 0 <= root < cluster.size:
            raise ValueError(f"root rank {root} outside [0, {cluster.size})")
        self.root = root
        check_non_negative(partition_flop_per_column, "partition_flop_per_column")
        check_non_negative(bytes_per_load_unit, "bytes_per_load_unit")
        self.partition_flop_per_column = partition_flop_per_column
        self.bytes_per_load_unit = bytes_per_load_unit
        self.partitioner = StripePartitioner(cluster.size)
        #: Running history of LB step reports.
        self.history: list[LBStepReport] = []
        self._average_cache: "tuple[int, float]" = (0, 0.0)

    # ------------------------------------------------------------------
    @property
    def average_cost(self) -> float:
        """Average virtual cost of the LB steps performed so far (seconds).

        Memoized on the history length: the runner reads this every
        iteration while the history only grows at LB steps, so the mean is
        recomputed only when a new report was appended.
        """
        if not self.history:
            return 0.0
        cached_len, cached_mean = self._average_cache
        if cached_len != len(self.history):
            cached_mean = float(np.mean([report.cost for report in self.history]))
            self._average_cache = (len(self.history), cached_mean)
        return cached_mean

    def execute(
        self,
        context: LBContext,
        column_loads: Sequence[float],
        current_partition: Optional[StripePartition] = None,
    ) -> LBStepReport:
        """Run one LB step (Algorithm 2) and charge its virtual cost.

        Parameters
        ----------
        context:
            Runtime snapshot used by the workload policy.
        column_loads:
            Per-column workload of the domain at this iteration.
        current_partition:
            The partition in effect before the step; used to compute the
            migration volume (and hence the migration cost).  When omitted
            the migration cost is charged as if every cell moved.
        """
        loads = np.asarray(column_loads, dtype=float)
        return self.execute_many([self], [context], loads[None, :], [current_partition])[0]

    @staticmethod
    def execute_many(
        balancers: "Sequence[CentralizedLoadBalancer]",
        contexts: Sequence[LBContext],
        column_loads: np.ndarray,
        current_partitions: "Sequence[Optional[StripePartition]]",
    ) -> List[LBStepReport]:
        """Independent LB steps of balancers over equally sized clusters.

        Balancer ``i`` runs one step on ``contexts[i]``, row ``i`` of the
        ``(k, columns)`` ``column_loads`` and ``current_partitions[i]``.
        The policy decisions and the partitioning of all ``k`` steps are
        vectorized (see :meth:`WorkloadPolicy.decide_many` and
        :meth:`StripePartitioner.partition_rows`); the reports, the charged
        costs and every balancer's state equal those of ``k`` one-balancer
        calls (:meth:`execute` is the ``k = 1`` case).
        """
        num_pes = balancers[0].cluster.size
        if any(balancer.cluster.size != num_pes for balancer in balancers):
            raise ValueError("execute_many needs clusters of one size")
        loads = np.asarray(column_loads, dtype=float)
        policies = [balancer.policy for balancer in balancers]
        decisions = type(policies[0]).decide_many(policies, contexts)
        partitions = balancers[0].partitioner.partition_rows(
            loads, [decision.target_shares for decision in decisions]
        )
        return [
            balancer._charge(
                context, decision, partition, *_migration(row, current, partition)
            )
            for balancer, context, decision, partition, row, current in zip(
                balancers, contexts, decisions, partitions, loads, current_partitions
            )
        ]

    def _charge(
        self,
        context: LBContext,
        decision: LBDecision,
        new_partition: StripePartition,
        migrated: float,
        per_pe_migrated: np.ndarray,
    ) -> LBStepReport:
        """Charge one step's virtual cost and record its report."""
        partition_seconds = (
            self.partition_flop_per_column
            * new_partition.num_columns
            / self.cluster.pes[self.root].speed
        )
        cost = self.cluster.charge_lb_step(
            iteration=context.iteration,
            partition_seconds=partition_seconds,
            migration_bytes_per_pe=per_pe_migrated * self.bytes_per_load_unit,
            root=self.root,
        )

        report = LBStepReport(
            iteration=context.iteration,
            decision=decision,
            partition=new_partition,
            migrated_load=migrated,
            cost=cost,
        )
        self.history.append(report)
        self.policy.notify_balanced(context, decision)
        return report


def _migration(
    loads: np.ndarray,
    old_partition: Optional[StripePartition],
    new_partition: StripePartition,
) -> "tuple[float, np.ndarray]":
    """Migrated load and per-PE migration volume of one repartitioning.

    The total equals ``partitioning.metrics.migration_volume``; a PE's
    volume is the load of the columns it sends plus the load of the
    columns it receives (both cross its NIC).  Without an
    ``old_partition`` every cell counts as moved, spread evenly.
    """
    num_pes = new_partition.num_pes
    if old_partition is None:
        migrated = float(loads.sum())
        return migrated, np.full(num_pes, migrated / num_pes)
    if old_partition.num_columns != new_partition.num_columns:
        raise ValueError(
            "current_partition does not cover the same number of "
            "columns as the new partition"
        )
    old_owners = old_partition.partition.owners()
    new_owners = new_partition.partition.owners()
    moved = old_owners != new_owners
    moved_loads = loads[moved]
    sent = np.bincount(old_owners[moved], weights=moved_loads, minlength=num_pes)
    received = np.bincount(new_owners[moved], weights=moved_loads, minlength=num_pes)
    return float(moved_loads.sum()), sent + received
