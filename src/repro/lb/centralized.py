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
        #: Step costs of ``history``, filled prefix only (grown by doubling).
        self._costs = np.empty(8)

    # ------------------------------------------------------------------
    @property
    def average_cost(self) -> float:
        """Average virtual cost of the LB steps performed so far (seconds)."""
        return float(self._costs[: len(self.history)].mean()) if self.history else 0.0

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
        The policy decisions, the partitioning, the migration accounting and
        the cost charging of all ``k`` steps are vectorized (see
        :meth:`WorkloadPolicy.decide_many`,
        :meth:`StripePartitioner.partition_rows` and
        :meth:`VirtualCluster.charge_lb_steps`); the reports, the charged
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
        migrated, per_pe = _migrated_loads(loads, current_partitions, partitions)
        costs = VirtualCluster.charge_lb_steps(
            [balancer.cluster for balancer in balancers],
            iterations=[context.iteration for context in contexts],
            partition_seconds=[
                b.partition_flop_per_column * loads.shape[1] / b.cluster.pe_speed
                for b in balancers
            ],
            migration_bytes=per_pe * np.array([[b.bytes_per_load_unit] for b in balancers]),
            roots=[balancer.root for balancer in balancers],
        )
        reports = [
            LBStepReport(context.iteration, decision, partition, load, cost)
            for context, decision, partition, load, cost in zip(
                contexts, decisions, partitions, migrated, costs
            )
        ]
        for balancer, context, report in zip(balancers, contexts, reports):
            count = len(balancer.history)
            if count == balancer._costs.size:
                balancer._costs = np.concatenate((balancer._costs, np.empty(count)))
            balancer._costs[count] = report.cost
            balancer.history.append(report)
            balancer.policy.notify_balanced(context, report.decision)
        return reports


def _migrated_loads(
    loads: np.ndarray,
    old_partitions: "Sequence[Optional[StripePartition]]",
    new_partitions: Sequence[StripePartition],
) -> "tuple[List[float], np.ndarray]":
    """Migrated load and per-PE migration volume of ``k`` repartitionings.

    Row ``i`` of ``loads`` moves from ``old_partitions[i]`` to
    ``new_partitions[i]``.  A row's total equals
    ``partitioning.metrics.migration_volume``; a PE's volume is the load it
    sends plus the load it receives.  Without an old partition every cell
    counts as moved, spread evenly.  Each ``bincount`` bin (``row * P +
    owner``) sums the same loads in the same order as a per-row one would.
    """
    num_rows, num_columns = loads.shape
    num_pes = new_partitions[0].num_pes
    migrated = [0.0] * num_rows
    per_pe = np.empty((num_rows, num_pes))
    rows = []
    for i, old in enumerate(old_partitions):
        if old is None:
            migrated[i] = float(loads[i].sum())
            per_pe[i] = migrated[i] / num_pes
        elif old.num_columns != num_columns:
            raise ValueError(
                "current_partition does not cover the same number of "
                "columns as the new partition"
            )
        else:
            rows.append(i)
    if not rows:
        return migrated, per_pe
    # Old and new owners: the only (k * columns) arrays, so the smallest dtype.
    ranks = np.arange(num_pes, dtype=np.min_scalar_type(num_pes - 1))
    bounds = [parts[i].partition.bounds for parts in (old_partitions, new_partitions) for i in rows]
    old_owners, new_owners = np.repeat(
        np.tile(ranks, 2 * len(rows)), np.diff(bounds).ravel()
    ).reshape(2, -1)
    moved = np.flatnonzero(old_owners != new_owners)
    moved_row = moved // num_columns
    moved_loads = loads[np.asarray(rows)[moved_row], moved % num_columns]
    row_base = moved_row * num_pes
    bins = len(rows) * num_pes
    sent = np.bincount(row_base + old_owners[moved], weights=moved_loads, minlength=bins)
    received = np.bincount(row_base + new_owners[moved], weights=moved_loads, minlength=bins)
    per_pe[rows] = (sent + received).reshape(len(rows), num_pes)
    ends = np.searchsorted(moved, np.arange(1, len(rows) + 1) * num_columns).tolist()
    for i, start, stop in zip(rows, [0] + ends[:-1], ends):
        migrated[i] = float(moved_loads[start:stop].sum())
    return migrated, per_pe
