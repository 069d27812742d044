"""Stripe decomposition of a 2-D domain (the paper's LB technique).

The evaluation application divides its ``width x height`` cell grid into
``P`` stripes along the x-axis; a stripe is a set of consecutive columns and
each PE owns exactly one stripe.  At a load-balancing step the stripes are
recomputed so each contains roughly the same amount of *fluid-cell workload*
(or, under ULBA, the target share derived from the per-PE ``alpha`` values),
then broadcast to every PE.

:class:`StripePartitioner` is the reusable, application-agnostic piece: it
takes per-column workloads and target shares and returns a
:class:`StripePartition`.  The binding to the erosion application (which
knows how to compute per-column workloads from its cell grid) lives in
:mod:`repro.erosion.workload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.partitioning.weighted import (
    Partition1D,
    partition_contiguous,
    partition_contiguous_rows,
    target_shares_from_alphas,
)
from repro.utils.validation import check_positive_int

__all__ = ["StripePartition", "StripePartitioner"]


@dataclass(frozen=True, eq=False)
class StripePartition:
    """Assignment of domain columns to PEs.

    Attributes
    ----------
    partition:
        The underlying contiguous 1-D partition of column indices.
    column_loads:
        Per-column workload used to build the partition (kept for
        diagnostics and for migration-volume estimation), as a read-only
        float64 array; a writeable array or a sequence is copied.  Partitions
        compare equal when their boundaries and loads do.
    """

    partition: Partition1D
    column_loads: np.ndarray

    def __post_init__(self) -> None:
        loads = np.asarray(self.column_loads, dtype=float)
        if loads.flags.writeable:
            loads = loads.copy()
            loads.flags.writeable = False
        object.__setattr__(self, "column_loads", loads)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StripePartition):
            return NotImplemented
        return self.partition == other.partition and np.array_equal(
            self.column_loads, other.column_loads
        )

    def __hash__(self) -> int:
        return hash((self.partition, self.column_loads.tobytes()))

    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        """Number of stripes / PEs."""
        return self.partition.num_parts

    @property
    def num_columns(self) -> int:
        """Number of domain columns."""
        return self.partition.num_items

    def columns_of(self, rank: int) -> Tuple[int, int]:
        """Half-open column range ``[start, stop)`` owned by ``rank``."""
        return self.partition.part_range(rank)

    def owner_of_column(self, column: int) -> int:
        """Rank owning ``column``."""
        return self.partition.owner_of(column)

    def stripe_widths(self) -> np.ndarray:
        """Number of columns per stripe."""
        return self.partition.part_sizes()

    def stripe_loads(self) -> np.ndarray:
        """Workload per stripe according to ``column_loads``."""
        bounds = self.partition.bounds
        return np.asarray(
            [self.column_loads[start:stop].sum() for start, stop in zip(bounds, bounds[1:])]
        )

    def imbalance(self) -> float:
        """``max / mean - 1`` of the stripe loads."""
        loads = self.stripe_loads()
        mean = loads.mean()
        if mean <= 0.0:
            return 0.0
        return float(loads.max() / mean - 1.0)


class StripePartitioner:
    """Centralized stripe partitioner (Algorithm 2's partitioning kernel).

    Parameters
    ----------
    num_pes:
        Number of stripes to produce.
    """

    def __init__(self, num_pes: int) -> None:
        check_positive_int(num_pes, "num_pes")
        self.num_pes = num_pes

    # ------------------------------------------------------------------
    def partition(
        self,
        column_loads: Sequence[float],
        *,
        target_shares: Optional[Sequence[float]] = None,
    ) -> StripePartition:
        """Partition columns so stripe workloads match ``target_shares``.

        ``target_shares`` defaults to the even split (standard LB method).
        """
        loads = np.asarray(column_loads, dtype=float)
        part = partition_contiguous(loads, self.num_pes, target_shares)
        return StripePartition(partition=part, column_loads=loads)

    def partition_rows(
        self,
        column_loads: np.ndarray,
        target_shares: Sequence[Sequence[float]],
    ) -> List[StripePartition]:
        """:meth:`partition` of every row of a ``(k, columns)`` load array.

        Row ``i`` is split according to ``target_shares[i]``; one vectorized
        cut placement serves all rows and every partition equals the one
        :meth:`partition` returns for that row alone.  The partitions share
        one read-only copy of ``column_loads``, one row each.
        """
        loads = np.array(column_loads, dtype=float)
        loads.flags.writeable = False
        parts = partition_contiguous_rows(loads, self.num_pes, target_shares)
        return [
            StripePartition(partition=part, column_loads=row)
            for part, row in zip(parts, loads)
        ]

    def partition_with_alphas(
        self, column_loads: Sequence[float], alphas: Sequence[float]
    ) -> StripePartition:
        """Partition columns according to per-PE ULBA ``alpha`` values.

        This is exactly the weight computation of Algorithm 2 (lines 8-14)
        followed by ``PartitionAccordingToWeights``.
        """
        alphas = list(alphas)
        if len(alphas) != self.num_pes:
            raise ValueError(
                f"alphas must have one entry per PE ({self.num_pes}), got "
                f"{len(alphas)}"
            )
        shares = target_shares_from_alphas(alphas)
        return self.partition(column_loads, target_shares=shares)

    def uniform_partition(self, num_columns: int) -> StripePartition:
        """Initial equal-width decomposition (one stripe per PE, same width).

        The paper starts its experiments from a uniform decomposition: the
        domain is ``(P * 1000) x 1000`` cells and the initial partitioning
        attributes one rock (and thus one equal-width stripe) per PE.
        """
        check_positive_int(num_columns, "num_columns")
        if num_columns < self.num_pes:
            raise ValueError(
                f"cannot give {self.num_pes} PEs at least one of "
                f"{num_columns} columns"
            )
        return self.partition(np.ones(num_columns))
