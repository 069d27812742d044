"""Weighted contiguous 1-D partitioning.

This is the computational core of the paper's centralized LB technique
(Algorithm 2, ``PartitionAccordingToWeights``): given the per-column
workload of the 2-D domain and a target share of the total workload for each
PE, find contiguous column ranges (stripes) whose workloads match the target
shares as closely as possible.

Two pieces are provided:

* :func:`target_shares_from_alphas` -- convert the per-PE ULBA ``alpha``
  values gathered by the root into target workload shares (Algorithm 2,
  lines 8-14): each overloading PE ``p`` receives ``(1 - alpha_p) / P`` of
  the total, and the workload removed that way is divided evenly among the
  non-overloading PEs.  With all ``alpha`` equal this reduces to the paper's
  closed form ``(1 + alpha N / (P - N)) / P``; with every ``alpha = 0`` it
  reduces to the even split of the standard method.
* :func:`partition_contiguous` -- prefix-sum splitting of an item-weight
  array into ``P`` contiguous chunks matching arbitrary target shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = [
    "Partition1D",
    "partition_contiguous",
    "partition_contiguous_rows",
    "target_shares_from_alphas",
]


@dataclass(frozen=True)
class Partition1D:
    """A contiguous partition of ``num_items`` items into ``num_parts`` chunks.

    ``boundaries`` has length ``num_parts + 1`` with ``boundaries[0] == 0``
    and ``boundaries[-1] == num_items``; part ``p`` owns the half-open item
    range ``[boundaries[p], boundaries[p + 1])``.  ``bounds`` holds the same
    values as a read-only int64 array.
    """

    boundaries: Tuple[int, ...]

    def __post_init__(self) -> None:
        bounds = np.array(self.boundaries, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2:
            raise ValueError("a partition needs at least 2 boundaries")
        if bounds[0] != 0:
            raise ValueError("boundaries must start at 0")
        if (bounds[1:] < bounds[:-1]).any():
            raise ValueError("boundaries must be non-decreasing")
        bounds.flags.writeable = False
        object.__setattr__(self, "boundaries", tuple(bounds.tolist()))
        object.__setattr__(self, "bounds", bounds)

    # ------------------------------------------------------------------
    @property
    def num_parts(self) -> int:
        """Number of chunks."""
        return len(self.boundaries) - 1

    @property
    def num_items(self) -> int:
        """Number of partitioned items."""
        return self.boundaries[-1]

    def part_range(self, part: int) -> Tuple[int, int]:
        """Half-open item range ``[start, stop)`` owned by ``part``."""
        if not 0 <= part < self.num_parts:
            raise ValueError(f"part {part} outside [0, {self.num_parts})")
        return self.boundaries[part], self.boundaries[part + 1]

    def part_sizes(self) -> np.ndarray:
        """Number of items per part."""
        return self.bounds[1:] - self.bounds[:-1]

    def owner_of(self, item: int) -> int:
        """Index of the part owning ``item``."""
        if not 0 <= item < self.num_items:
            raise ValueError(f"item {item} outside [0, {self.num_items})")
        return int(np.searchsorted(self.bounds, item, side="right") - 1)

    def owners(self) -> np.ndarray:
        """Array mapping every item index to its owning part."""
        return np.repeat(
            np.arange(self.num_parts, dtype=np.int64), self.part_sizes()
        )


def target_shares_from_alphas(alphas: Sequence[float]) -> np.ndarray:
    """Convert per-PE ULBA ``alpha`` values into target workload shares.

    Parameters
    ----------
    alphas:
        One value per PE; ``alpha_p > 0`` marks PE ``p`` as overloading and
        requests that it keep only ``(1 - alpha_p)`` of its perfectly
        balanced share.  All values must lie in ``[0, 1]``.

    Returns
    -------
    numpy.ndarray
        Target share per PE, summing to 1.

    Notes
    -----
    If *every* PE is overloading the call degenerates to the even split
    (there is nobody to absorb the surplus); the 50 %-majority guard of
    Section III-C is implemented one level up, in
    :class:`repro.lb.ulba.ULBAPolicy`.
    """
    shares = np.asarray(list(alphas), dtype=float)
    if shares.ndim != 1 or shares.size == 0:
        raise ValueError("alphas must be a non-empty 1-D sequence")
    if np.any((shares < 0.0) | (shares > 1.0)):
        raise ValueError("all alpha values must lie within [0, 1]")
    num_pes = shares.size
    overloading = shares > 0.0
    num_overloading = int(overloading.sum())
    if num_overloading == 0 or num_overloading == num_pes:
        return np.full(num_pes, 1.0 / num_pes)
    target = np.empty(num_pes, dtype=float)
    target[overloading] = (1.0 - shares[overloading]) / num_pes
    # The share removed from the overloading PEs is divided evenly among the
    # non-overloading ones (the blue area of Fig. 1).
    surplus = shares[overloading].sum() / num_pes
    target[~overloading] = 1.0 / num_pes + surplus / (num_pes - num_overloading)
    return target


def partition_contiguous(
    weights: Sequence[float],
    num_parts: int,
    target_shares: Optional[Sequence[float]] = None,
) -> Partition1D:
    """Split ``weights`` into ``num_parts`` contiguous chunks.

    The split minimises (greedily, via prefix sums) the deviation between the
    cumulative weight at each cut and the cumulative target share -- the same
    strategy production stripe/1-D partitioners use, and exact up to the
    granularity of individual items.

    Parameters
    ----------
    weights:
        Non-negative per-item weights (per-column workloads for the stripe
        decomposition).
    num_parts:
        Number of chunks ``P``.
    target_shares:
        Desired fraction of the total weight per chunk; defaults to the even
        split.  Must be non-negative and sum to a positive value (they are
        normalised internally).

    Returns
    -------
    Partition1D
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    shares = None if target_shares is None else [list(target_shares)]
    return partition_contiguous_rows(w[None, :], num_parts, shares)[0]


def partition_contiguous_rows(
    weights: np.ndarray,
    num_parts: int,
    target_shares: Optional[Sequence[Sequence[float]]] = None,
) -> List[Partition1D]:
    """:func:`partition_contiguous` of every row of a ``(k, C)`` weight array.

    Row ``i`` is split according to ``target_shares[i]`` (the even split
    when omitted).  The prefix sums, targets and cut candidates of all rows
    come from one vectorized pass; row-wise reductions along the contiguous
    last axis round exactly like 1-D ones, so each partition equals the one
    of that row split alone.
    """
    check_positive_int(num_parts, "num_parts")
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] == 0:
        raise ValueError("weights must be a non-empty (rows, items) array")
    if (w < 0.0).any():
        raise ValueError("weights must all be >= 0")
    if w.shape[1] < num_parts:
        raise ValueError(
            f"cannot split {w.shape[1]} items into {num_parts} non-empty parts; "
            "reduce the number of parts or refine the items"
        )
    if target_shares is None:
        shares = np.full((w.shape[0], num_parts), 1.0 / num_parts)
    else:
        shares = np.asarray(target_shares, dtype=float)
        if shares.shape != (w.shape[0], num_parts):
            raise ValueError(
                f"target_shares must have shape {(w.shape[0], num_parts)}, "
                f"got {shares.shape}"
            )
        if (shares < 0.0).any():
            raise ValueError("target_shares must all be >= 0")
        total_shares = shares.sum(axis=1)
        if (total_shares <= 0.0).any():
            raise ValueError("target_shares must sum to a positive value")
        shares = shares / total_shares[:, None]

    rows, num_items = w.shape
    totals = w.sum(axis=1)
    prefix = np.zeros((rows, num_items + 1))
    np.cumsum(w, axis=1, out=prefix[:, 1:])
    cumulative_targets = np.cumsum(shares, axis=1) * totals[:, None]
    if num_parts == 1:
        cuts, feasible = None, None
    else:
        cuts, feasible = _vectorized_cuts(
            prefix, cumulative_targets, num_items, num_parts
        )
    parts = []
    for row in range(rows):
        if totals[row] <= 0.0:
            # Degenerate: no workload at all -- split items evenly by count.
            boundaries = np.linspace(0, num_items, num_parts + 1).round()
        elif num_parts == 1:
            boundaries = (0, num_items)
        elif feasible[row]:
            boundaries = (0,) + tuple(cuts[row].tolist()) + (num_items,)
        else:
            boundaries = _sequential_cuts(
                prefix[row], cumulative_targets[row], num_items, num_parts
            )
        parts.append(Partition1D(boundaries=boundaries))
    return parts


def _sequential_cuts(
    prefix: np.ndarray,
    cumulative_targets: np.ndarray,
    num_items: int,
    num_parts: int,
) -> Tuple[int, ...]:
    """Exact greedy cut placement, one cut after the other."""
    boundaries = [0]
    for part in range(num_parts - 1):
        target = cumulative_targets[part]
        # Cut at the item boundary whose prefix sum is closest to the target,
        # while keeping at least (num_parts - part - 1) items for the rest
        # and never moving backwards.
        lo = boundaries[-1] + 1
        hi = num_items - (num_parts - part - 1)
        if lo > hi:
            boundaries.append(boundaries[-1])
            continue
        idx = int(np.searchsorted(prefix, target, side="left"))
        candidates = [c for c in (idx - 1, idx, idx + 1) if lo <= c <= hi]
        if not candidates:
            idx = min(max(idx, lo), hi)
            candidates = [idx]
        best = min(candidates, key=lambda c: abs(prefix[c] - target))
        boundaries.append(int(best))
    boundaries.append(int(num_items))
    return tuple(boundaries)


#: Candidate cut offsets around each target's insertion point.
_CUT_OFFSETS = np.array([-1, 0, 1])


def _vectorized_cuts(
    prefix: np.ndarray,
    cumulative_targets: np.ndarray,
    num_items: int,
    num_parts: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched fast path of the greedy cut placement, for ``k`` rows.

    Evaluates all ``P - 1`` cuts of every row at once, ignoring the
    sequential ``lo``/``hi`` feasibility coupling, then validates each row
    against those constraints.  When a row's unconstrained choices already
    satisfy them (the overwhelmingly common case), the sequential loop would
    have picked the same cuts -- each unconstrained winner is also the
    first-tie winner within its constrained candidate set.  Returns the
    ``(k, P - 1)`` cuts and a ``(k,)`` mask of the rows whose cuts are
    final; the caller runs the exact loop for the others.
    """
    targets = cumulative_targets[:, : num_parts - 1]
    idx = np.empty(targets.shape, dtype=np.int64)
    for row in range(targets.shape[0]):
        idx[row] = np.searchsorted(prefix[row], targets[row], side="left")
    cand = idx[:, :, None] + _CUT_OFFSETS
    in_range = (cand >= 0) & (cand <= num_items)
    dist = np.abs(
        np.take_along_axis(
            prefix, np.where(in_range, cand, 0).reshape(len(prefix), -1), axis=1
        ).reshape(cand.shape)
        - targets[:, :, None]
    )
    # Out-of-range candidates must not win; their stand-in distance is fake.
    dist[~in_range] = np.inf
    best = np.take_along_axis(cand, dist.argmin(axis=2)[:, :, None], axis=2)[:, :, 0]

    cuts = np.arange(num_parts - 1)
    hi = num_items - (num_parts - 1 - cuts)
    lo = np.empty_like(best)
    lo[:, 0] = 1
    lo[:, 1:] = best[:, :-1] + 1
    feasible = ((best >= lo) & (best <= hi)).all(axis=1)
    return best, feasible
