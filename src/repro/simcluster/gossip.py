"""Gossip-based dissemination of per-PE metrics (Section III-C).

In the paper's implementation each PE keeps a database storing the workload
increase rate (WIR) of every PE.  Each PE evaluates its own WIR and
propagates it -- together with the most recent WIRs in its database -- to
the other PEs using a dissemination (gossip) algorithm; one dissemination
step is performed per application iteration, and the principle of
persistence makes slightly stale values acceptable.

:class:`GossipBoard` reproduces that mechanism on flat array state: the
whole replicated database is a pair of ``(P, P)`` matrices -- ``values`` and
``versions`` -- where row ``r`` is the view of rank ``r`` and column ``s``
holds what ``r`` knows about source rank ``s`` (version ``-1`` = unknown).
One :meth:`step` performs the entire synchronous push round with a single
batched RNG draw (:func:`select_push_targets`) and a vectorized
freshest-version merge (:func:`merge_pushes`: shift-packed
``(version, push)`` keys, scattered with ``np.maximum.at`` one cache-sized
block of columns at a time) instead of per-rank ``dict`` snapshot/merge
loops.

Version tie-break rule (applied consistently):

* **freshest wins** -- a merged entry only overwrites a strictly older one;
  on equal versions the receiver keeps what it has (copies of the same
  ``(source, version)`` pair carry the same value unless the source
  re-published at that version; among such pushes the later one wins);
* **self-publish always wins ties** -- a rank re-publishing its own value at
  an unchanged version replaces its local entry, so the latest published
  value is what starts propagating.

Two board implementations share those semantics:

* :class:`GossipBoard` -- the **dense** board above: ``O(P^2)`` memory,
  every rank eventually knows every value, and the ULBA fast paths can read
  the full view matrix.  The right choice up to a few hundred PEs.
* :class:`SparseGossipBoard` -- the **memory-bounded** board for the large-P
  regime (P >= 1024): each rank keeps at most ``view_size`` entries
  (``O(P * view_size)`` memory total), pushes along a configurable topology
  (``random`` / ``ring`` / ``hypercube``) and evicts the stalest entries
  when a view overflows.  Views are *partial by design*; consumers must
  tolerate incomplete views (the ULBA policies already do -- their
  ``complete_matrix`` fast paths return ``None`` and degrade to the
  per-rank rule).  Its merge sorts packed int64 keys: one ``argsort`` to
  keep the freshest copy per ``(receiver, source)`` and one to evict.

Versions are below :data:`VERSION_LIMIT`, which leaves every packed key
room in an int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "BatchGossipBoard",
    "GossipConfig",
    "GossipBoard",
    "SparseGossipBoard",
    "VERSION_LIMIT",
    "merge_pushes",
    "select_push_targets",
    "sparse_random_push_targets",
    "topology_push_targets",
]

#: Recognised board implementations (see module docstring).
GOSSIP_MODES = ("dense", "sparse")
#: Recognised push topologies of the sparse board; the dense board accepts
#: them too (``random`` keeps its historical batched ``(P, P)`` draw).
GOSSIP_TOPOLOGIES = ("random", "ring", "hypercube")
#: Exclusive upper bound of published versions.  The merges pack a version
#: into the high bits of an int64 key, above a push index or a rank pair.
VERSION_LIMIT = 2**31
#: Largest sparse board: its eviction key packs two ranks and a 31-bit age.
SPARSE_RANK_LIMIT = 2**16
#: Columns one dense merge block covers (see :func:`merge_pushes`).
_MERGE_BLOCK = 64


@dataclass(frozen=True)
class GossipConfig:
    """Tuning knobs of the push-gossip dissemination."""

    #: Number of peers each rank pushes its view to per step.
    fanout: int = 2
    #: When True, every rank also pushes to rank 0 every step, mimicking
    #: implementations that piggy-back metrics on an existing reduction tree
    #: (dense board with ``random`` topology only).
    include_root: bool = False
    #: Board implementation: ``"dense"`` keeps the full ``(P, P)`` view
    #: matrix, ``"sparse"`` bounds every rank's view to ``view_size`` entries
    #: (``O(P * view_size)`` memory -- the large-P execution path).
    mode: str = "dense"
    #: Push topology: ``"random"`` (uniform random peers, one batched RNG
    #: draw per round), ``"ring"`` (the ``fanout`` clockwise neighbours,
    #: deterministic) or ``"hypercube"`` (dimension-exchange partners,
    #: deterministic, completes fastest for power-of-two ``P``).
    topology: str = "random"
    #: Maximum entries a sparse view retains per rank (``None`` = unbounded,
    #: i.e. up to ``P`` entries).  Ignored by the dense board.  When a view
    #: overflows, the stalest (lowest-version) entries are evicted; a rank's
    #: own entry is never evicted.
    view_size: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive_int(self.fanout, "fanout")
        if self.mode not in GOSSIP_MODES:
            raise ValueError(
                f"mode must be one of {GOSSIP_MODES}, got {self.mode!r}"
            )
        if self.topology not in GOSSIP_TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {GOSSIP_TOPOLOGIES}, got {self.topology!r}"
            )
        if self.view_size is not None:
            check_positive_int(self.view_size, "view_size")
            if self.view_size < 2:
                raise ValueError(
                    "view_size must be >= 2 (a view needs the rank's own "
                    f"entry plus at least one neighbour), got {self.view_size}"
                )
        if self.include_root and (self.mode != "dense" or self.topology != "random"):
            raise ValueError(
                "include_root is only supported on the dense board with the "
                "random topology"
            )

    # ------------------------------------------------------------------
    def board_nbytes(self, num_ranks: int) -> int:
        """Steady-state bytes of one board's value/version state at ``P`` ranks.

        Dense: ``P * P * 16`` (one float64 + one int64 per entry).  Sparse:
        ``P * M * 24`` (source + value + version per retained entry, ``M``
        the effective view size).  This is what the batch engine's replica
        chunking and the large-P benchmarks budget against; transient
        per-round merge buffers are not included.
        """
        check_positive_int(num_ranks, "num_ranks")
        if self.mode == "sparse":
            m = num_ranks if self.view_size is None else min(self.view_size, num_ranks)
            return num_ranks * m * 24
        return num_ranks * num_ranks * 16


def select_push_targets(
    rng: np.random.Generator,
    num_ranks: int,
    fanout: int,
    *,
    include_root: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Select every rank's push targets for one round with one RNG draw.

    Each rank pushes to ``min(fanout, num_ranks - 1)`` distinct peers chosen
    uniformly at random (never itself).  The selection is done with a single
    batched draw: one ``(P, P)`` matrix of uniform keys whose ``fanout``
    smallest off-diagonal entries per row are the targets -- a uniformly
    random ``fanout``-subset per rank, like per-rank sampling without
    replacement, but batched.

    Returns ``(src, dst)`` index arrays of equal length: push ``e`` sends the
    view of rank ``src[e]`` to rank ``dst[e]``.  With ``include_root``, every
    rank other than 0 additionally pushes to rank 0.
    """
    check_positive_int(num_ranks, "num_ranks")
    if num_ranks == 1:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    keys = rng.random((num_ranks, num_ranks))
    np.fill_diagonal(keys, np.inf)
    targets = _smallest_k(keys, min(fanout, num_ranks - 1))
    return _random_push_edges(targets[None], include_root)


def _smallest_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the ``k`` smallest entries of every row of ``keys``.

    For ``k <= 3`` this takes ``k`` vectorized ``argmin`` passes (each
    masking its pick with ``inf``, so ``keys`` is modified), which measures
    several times faster than ``argpartition``'s introselect; larger ``k``
    uses ``argpartition``.  Both yield the same set per row, in different
    orders -- and since each row's targets are distinct, the order never
    changes which push wins a merge tie (see :func:`merge_pushes`).
    """
    if k > 3:
        return np.argpartition(keys, k - 1, axis=1)[:, :k]
    rows = np.arange(keys.shape[0])
    targets = np.empty((rows.size, k), dtype=np.intp)
    for j in range(k):
        targets[:, j] = low = keys.argmin(axis=1)
        if j + 1 < k:
            keys[rows, low] = np.inf
    return targets


def _random_push_edges(
    targets: np.ndarray, include_root: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Push edges of ``(R, P, k)`` per-rank targets, views flattened to ``R * P``.

    Rank ``p`` of replica ``r`` is view ``r * P + p``; its pushes are
    enumerated in rank order.  With ``include_root``, every rank other than
    0 whose targets missed its replica's rank 0 pushes to it as well; those
    edges come last.
    """
    replicas, num_ranks, k = targets.shape
    base = (np.arange(replicas, dtype=np.intp) * num_ranks)[:, None, None]
    src = np.repeat(np.arange(replicas * num_ranks, dtype=np.intp), k)
    dst = (targets + base).reshape(-1)
    if include_root:
        missing = ~(targets == 0).any(axis=2)
        missing[:, 0] = False
        views = np.flatnonzero(missing)
        src = np.concatenate([src, views])
        dst = np.concatenate([dst, views - views % num_ranks])
    return src, dst


def topology_push_targets(
    step: int, num_ranks: int, fanout: int, topology: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic push edges of one round for ``ring`` / ``hypercube``.

    * ``ring``: every rank pushes to its ``fanout`` clockwise neighbours
      ``(rank + 1) ... (rank + fanout) mod P`` -- static, no RNG.
    * ``hypercube``: at round ``step`` every rank pushes to its partners
      across dimensions ``step ... step + fanout - 1`` (mod the hypercube
      dimension), i.e. ``rank XOR 2^d``; partners >= ``P`` are skipped for
      non-power-of-two ``P``.  One dimension per round with ``fanout=1``
      completes a broadcast in ``ceil(log2 P)`` rounds for power-of-two
      ``P``.

    Returns ``(src, dst)`` index arrays like :func:`select_push_targets`.
    """
    check_positive_int(num_ranks, "num_ranks")
    if num_ranks == 1:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    ranks = np.arange(num_ranks, dtype=np.intp)
    if topology == "ring":
        k = min(fanout, num_ranks - 1)
        offsets = np.arange(1, k + 1, dtype=np.intp)
        dst = (ranks[:, None] + offsets[None, :]) % num_ranks
        src = np.repeat(ranks, k)
        return src, dst.reshape(-1)
    if topology == "hypercube":
        dim = max(1, int(num_ranks - 1).bit_length())
        k = min(fanout, dim)
        bits = (step + np.arange(k)) % dim
        dst = ranks[:, None] ^ (1 << bits.astype(np.intp))[None, :]
        src = np.repeat(ranks, k)
        dst = dst.reshape(-1)
        valid = dst < num_ranks
        return src[valid], dst[valid]
    raise ValueError(f"no deterministic target rule for topology {topology!r}")


def sparse_random_push_targets(
    rng: np.random.Generator, num_ranks: int, fanout: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform random push edges with ``O(P * fanout)`` memory.

    One batched integer draw selects ``fanout`` peers per rank (uniform over
    the other ranks, duplicates within a rank possible -- sampling *with*
    replacement, unlike the dense board's ``(P, P)``-keyed subset draw,
    whose key matrix alone would defeat the sparse board's memory bound).
    """
    check_positive_int(num_ranks, "num_ranks")
    if num_ranks == 1:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    k = min(fanout, num_ranks - 1)
    ranks = np.arange(num_ranks, dtype=np.intp)
    draws = rng.integers(0, num_ranks - 1, size=(num_ranks, k))
    # Shift draws at or above the drawing rank by one: uniform over the
    # other P-1 ranks, never self.
    dst = draws + (draws >= ranks[:, None])
    src = np.repeat(ranks, k)
    return src, dst.reshape(-1).astype(np.intp, copy=False)


def _checked_version(version: Optional[int], steps: int) -> int:
    """The version a publish uses: ``steps`` by default, else ``version``."""
    v = steps if version is None else int(version)
    if not 0 <= v < VERSION_LIMIT:
        raise ValueError(f"version must be in [0, 2**31), got {v}")
    return v


def merge_pushes(
    values: np.ndarray, versions: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> None:
    """Vectorized freshest-version merge of one round's pushes, in place.

    ``values`` / ``versions`` are ``(V, P)`` matrices whose row ``v`` is one
    *view* (what its owner knows about the ``P`` source entries); push ``e``
    sends the pre-round snapshot of row ``src[e]`` to row ``dst[e]``.  The
    same function merges a solo board (``V = P`` views) and a replica batch
    (``V = R * P`` views, rows of replica ``r`` offset by ``r * P`` -- views
    of different replicas never push to each other, so the grouped merge
    below never mixes them).

    Every copy of an entry gets one int64 key ``(version << b) | tag``: a
    push's tag is its index ``e``, the receiver's own copy has the all-ones
    tag, above every push.  One unbuffered ``np.maximum.at`` scatter of the
    push keys onto the receivers' keys then leaves the freshest version in
    every entry.  On a version tie the receiver keeps its copy and, among
    pushes, the later one wins (copies of one ``(source, version)`` pair
    differ only after an equal-version re-publish).  Versions are below
    :data:`VERSION_LIMIT`, so the keys fit.

    The columns are merged in blocks of ``_MERGE_BLOCK``.  A block reads
    and writes only its own columns, so it still sees the pre-round state,
    and its key matrices stay in cache even at ``P = 1024``.  Values are
    gathered and written only where an entry improved.
    """
    num_pushes = src.shape[0]
    num_entries = values.shape[1]
    shift = num_pushes.bit_length()
    own = (1 << shift) - 1
    push_tag = np.arange(num_pushes, dtype=np.int64)[:, None]
    width = 0
    for lo in range(0, num_entries, _MERGE_BLOCK):
        hi = min(lo + _MERGE_BLOCK, num_entries)
        if hi - lo != width:
            width = hi - lo
            targets = (dst[:, None] * width + np.arange(width)).reshape(-1)
        keys = versions[src, lo:hi] << shift
        keys |= push_tag
        best = versions[:, lo:hi] << shift
        best |= own
        np.maximum.at(best.reshape(-1), targets, keys.reshape(-1))
        tag = (best & own).reshape(-1)
        improved = np.flatnonzero(tag != own)
        if improved.size:
            rows, cols = np.divmod(improved, width)
            cols += lo
            values[rows, cols] = values[src[tag[improved]], cols]
            np.right_shift(best, shift, out=versions[:, lo:hi])


class GossipBoard:
    """Replicated ``rank -> value`` board maintained by push gossip."""

    def __init__(
        self,
        num_ranks: int,
        *,
        config: Optional[GossipConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        check_positive_int(num_ranks, "num_ranks")
        self.num_ranks = num_ranks
        self.config = config or GossipConfig()
        self._rng = ensure_rng(seed)
        #: ``values[r, s]`` / ``versions[r, s]``: what rank ``r`` knows about
        #: source rank ``s``; version -1 marks an unknown entry.
        self._values = np.zeros((num_ranks, num_ranks), dtype=float)
        self._versions = np.full((num_ranks, num_ranks), -1, dtype=np.int64)
        self._steps = 0
        # Completeness is monotone (versions never regress), so the check is
        # cached once it first succeeds.
        self._complete = False

    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Number of dissemination steps performed so far."""
        return self._steps

    def publish(self, rank: int, value: float, *, version: Optional[int] = None) -> None:
        """Rank ``rank`` publishes a new ``value`` for itself.

        ``version`` defaults to the current step count, so values published
        later always win over older ones when views merge.  A self-publish
        at the *same* version also wins (ties go to the owner), so the
        latest value published within a step is the one disseminated.
        Explicit versions must lie in ``[0, VERSION_LIMIT)`` (-1 is the
        internal "unknown" sentinel).
        """
        self._check_rank(rank)
        v = _checked_version(version, self._steps)
        if v >= self._versions[rank, rank]:
            self._values[rank, rank] = float(value)
            self._versions[rank, rank] = v

    def publish_all(
        self, values: np.ndarray, *, version: Optional[int] = None
    ) -> None:
        """Every rank publishes its own value in one vectorized update.

        Equivalent to ``publish(r, values[r])`` for every rank ``r``, with a
        single diagonal write instead of ``P`` Python calls.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (self.num_ranks,):
            raise ValueError(
                f"values must have one entry per rank ({self.num_ranks}), "
                f"got {values.shape}"
            )
        v = _checked_version(version, self._steps)
        diag = np.arange(self.num_ranks)
        mask = v >= self._versions[diag, diag]
        idx = diag[mask]
        self._values[idx, idx] = values[mask]
        self._versions[idx, idx] = v

    def local_view(self, rank: int) -> Dict[int, float]:
        """The values rank ``rank`` currently knows, keyed by source rank."""
        self._check_rank(rank)
        known = np.flatnonzero(self._versions[rank] >= 0)
        row = self._values[rank]
        return {int(src): float(row[src]) for src in known}

    def known_mask(self, rank: int) -> np.ndarray:
        """Boolean mask of the source ranks whose value ``rank`` knows."""
        self._check_rank(rank)
        return self._versions[rank] >= 0

    def known_values_row(self, rank: int) -> np.ndarray:
        """The values ``rank`` knows, compacted in ascending source order.

        Same numbers as ``local_view(rank).values()`` without building the
        dictionary -- the hot path of the ULBA per-rank overload rule.
        """
        self._check_rank(rank)
        return self._values[rank][self._versions[rank] >= 0]

    def values_row(self, rank: int) -> np.ndarray:
        """Raw value row of ``rank`` (entries only valid where known)."""
        self._check_rank(rank)
        return self._values[rank]

    def known_fraction(self, rank: int) -> float:
        """Fraction of ranks whose value is known by ``rank``."""
        self._check_rank(rank)
        return float((self._versions[rank] >= 0).sum()) / self.num_ranks

    def own_value(self, rank: int) -> Optional[float]:
        """The value ``rank`` published for itself, if any."""
        self._check_rank(rank)
        if self._versions[rank, rank] < 0:
            return None
        return float(self._values[rank, rank])

    def is_complete(self) -> bool:
        """True when every rank knows a value for every other rank."""
        if not self._complete:
            self._complete = bool((self._versions >= 0).all())
        return self._complete

    def complete_matrix(self) -> Optional[np.ndarray]:
        """The full ``(P, P)`` view matrix once every entry is known.

        Row ``r`` is rank ``r``'s complete view in ascending source order --
        the same numbers every per-rank dict view would yield.  Returns
        ``None`` while any entry is still unknown.  The array is internal
        state: callers must treat it as read-only.
        """
        return self._values if self.is_complete() else None

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Perform one push-gossip dissemination round.

        With the (default) ``random`` topology each rank selects ``fanout``
        distinct random peers (one batched RNG draw for the whole round);
        the deterministic ``ring`` / ``hypercube`` topologies consume no
        randomness.  Every rank pushes its whole view; receivers keep the
        freshest version of each entry.  The pushes of a round are based on
        the views at the *start* of the round (synchronous gossip), matching
        one dissemination step per application iteration.
        """
        if self.config.topology == "random":
            src, dst = select_push_targets(
                self._rng,
                self.num_ranks,
                self.config.fanout,
                include_root=self.config.include_root,
            )
        else:
            src, dst = topology_push_targets(
                self._steps, self.num_ranks, self.config.fanout, self.config.topology
            )
        if src.size:
            merge_pushes(self._values, self._versions, src, dst)
        self._steps += 1

    def run_until_complete(self, max_steps: int = 1_000) -> int:
        """Gossip until every rank knows every value; returns the step count."""
        check_positive_int(max_steps, "max_steps")
        initial = self._steps
        while not self.is_complete():
            if self._steps - initial >= max_steps:
                raise RuntimeError(
                    f"gossip did not converge within {max_steps} steps; "
                    "did every rank publish a value?"
                )
            self.step()
        return self._steps - initial

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} outside [0, {self.num_ranks})")


class SparseGossipBoard:
    """Memory-bounded ``rank -> value`` board for the large-P regime.

    The dense :class:`GossipBoard` stores the fully replicated database as a
    ``(P, P)`` matrix pair -- 256 MiB of board state alone at ``P = 4096``
    and quadratic beyond, which caps experiments at a few hundred PEs.  This
    board bounds every rank's view to at most ``view_size`` entries, stored
    as three ``(P, view_size)`` arrays (source rank, value, version; source
    ``-1`` marks an empty slot), so total memory is ``O(P * view_size)``
    regardless of cluster size.

    The merge semantics are shared with the dense board: a pushed entry only
    overwrites a strictly older one, the receiver keeps its entry on version
    ties, and a self-publish at an unchanged version always wins.  What the
    bounded view adds is **eviction**: when a merged view exceeds
    ``view_size`` entries, the freshest ``view_size - 1`` non-self entries
    are retained (ties broken towards lower source ranks, so eviction is
    deterministic) and a rank's own entry -- pinned in slot 0 -- is never
    evicted.  Views are therefore *partial by design* and consumers must
    treat them like early-phase dense gossip views (the ULBA policies
    already do); :meth:`complete_matrix` returns ``None`` whenever the view
    bound can hide entries, which makes the dense fast paths degrade
    gracefully instead of reading a wrong matrix.

    Push targets come from :attr:`GossipConfig.topology`: ``random`` draws
    ``fanout`` uniform peers per rank with one batched ``(P, fanout)``
    integer draw per round (bounded memory, unlike the dense board's
    ``(P, P)`` key matrix), ``ring`` and ``hypercube`` are deterministic.
    Boards hold at most :data:`SPARSE_RANK_LIMIT` ranks, so that the merge's
    packed sort keys fit in an int64.
    """

    def __init__(
        self,
        num_ranks: int,
        *,
        config: Optional[GossipConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        check_positive_int(num_ranks, "num_ranks")
        if num_ranks > SPARSE_RANK_LIMIT:
            raise ValueError(
                f"a sparse board holds at most {SPARSE_RANK_LIMIT} ranks, "
                f"got {num_ranks}"
            )
        self.num_ranks = num_ranks
        self.config = config or GossipConfig(mode="sparse")
        self._rng = ensure_rng(seed)
        m = self.config.view_size
        #: Effective per-rank view bound (never useful beyond ``P``).
        self.view_size = num_ranks if m is None else min(m, num_ranks)
        # Row r holds rank r's bounded view; slot 0 is pinned to rank r
        # itself (version -1 until it publishes).
        self._src = np.full((num_ranks, self.view_size), -1, dtype=np.int64)
        self._val = np.zeros((num_ranks, self.view_size), dtype=float)
        self._ver = np.full((num_ranks, self.view_size), -1, dtype=np.int64)
        self._src[:, 0] = np.arange(num_ranks)
        self._steps = 0
        self._complete = False

    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Number of dissemination steps performed so far."""
        return self._steps

    @property
    def nbytes(self) -> int:
        """Bytes of the board's steady-state view arrays."""
        return int(self._src.nbytes + self._val.nbytes + self._ver.nbytes)

    def publish(self, rank: int, value: float, *, version: Optional[int] = None) -> None:
        """Rank ``rank`` publishes a new ``value`` for itself.

        Same contract as :meth:`GossipBoard.publish`: the version defaults
        to the step count, and a self-publish at an unchanged version wins.
        """
        self._check_rank(rank)
        v = _checked_version(version, self._steps)
        if v >= self._ver[rank, 0]:
            self._val[rank, 0] = float(value)
            self._ver[rank, 0] = v

    def publish_all(
        self, values: np.ndarray, *, version: Optional[int] = None
    ) -> None:
        """Every rank publishes its own value in one vectorized update."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.num_ranks,):
            raise ValueError(
                f"values must have one entry per rank ({self.num_ranks}), "
                f"got {values.shape}"
            )
        v = _checked_version(version, self._steps)
        mask = v >= self._ver[:, 0]
        self._val[mask, 0] = values[mask]
        self._ver[mask, 0] = v

    # ------------------------------------------------------------------
    def local_view(self, rank: int) -> Dict[int, float]:
        """The values rank ``rank`` currently knows, keyed by source rank."""
        self._check_rank(rank)
        valid = np.flatnonzero(self._ver[rank] >= 0)
        srcs = self._src[rank, valid]
        vals = self._val[rank, valid]
        order = np.argsort(srcs)
        return {int(srcs[i]): float(vals[i]) for i in order}

    def known_mask(self, rank: int) -> np.ndarray:
        """Boolean mask over source ranks whose value ``rank`` knows."""
        self._check_rank(rank)
        mask = np.zeros(self.num_ranks, dtype=bool)
        mask[self._src[rank][self._ver[rank] >= 0]] = True
        return mask

    def known_values_row(self, rank: int) -> np.ndarray:
        """The values ``rank`` knows, compacted in ascending source order.

        Same contract as :meth:`GossipBoard.known_values_row` (the ULBA hot
        path); the slots are stored by freshness, so a small sort by source
        restores the canonical order.
        """
        self._check_rank(rank)
        valid = self._ver[rank] >= 0
        srcs = self._src[rank][valid]
        return self._val[rank][valid][np.argsort(srcs)]

    def own_value(self, rank: int) -> Optional[float]:
        """The value ``rank`` published for itself, if any."""
        self._check_rank(rank)
        if self._ver[rank, 0] < 0:
            return None
        return float(self._val[rank, 0])

    def known_fraction(self, rank: int) -> float:
        """Fraction of ranks whose value is known by ``rank``."""
        self._check_rank(rank)
        return float((self._ver[rank] >= 0).sum()) / self.num_ranks

    def is_complete(self) -> bool:
        """True when every rank knows every value (requires an unbounded view)."""
        if self.view_size < self.num_ranks:
            return False
        if not self._complete:
            self._complete = bool((self._ver >= 0).all())
        return self._complete

    def complete_matrix(self) -> Optional[np.ndarray]:
        """The full ``(P, P)`` view matrix, or ``None`` while any view is partial.

        Only an unbounded sparse board (``view_size >= P``) can ever be
        complete; a bounded board always returns ``None`` here, which is
        exactly what makes the dense fast paths (e.g.
        :meth:`repro.lb.wir.OverloadDetector.overloading_mask_from_views`)
        degrade gracefully to the per-rank rule.  Unlike the dense board
        this materializes a fresh matrix per call; callers cache it per LB
        step.
        """
        if not self.is_complete():
            return None
        rows = np.repeat(np.arange(self.num_ranks), self.view_size)
        matrix = np.empty((self.num_ranks, self.num_ranks), dtype=float)
        matrix[rows, self._src.reshape(-1)] = self._val.reshape(-1)
        return matrix

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One synchronous push round: select targets, merge, evict.

        All pushes of a round see the views at the start of the round, like
        the dense board.  The whole round is a constant number of array
        passes over ``O(P * fanout * view_size)`` candidate entries -- no
        ``(P, P)`` operand is ever formed.
        """
        if self.num_ranks > 1:
            if self.config.topology == "random":
                src, dst = sparse_random_push_targets(
                    self._rng, self.num_ranks, self.config.fanout
                )
            else:
                src, dst = topology_push_targets(
                    self._steps, self.num_ranks, self.config.fanout, self.config.topology
                )
            if src.size:
                self._merge(src, dst)
        self._steps += 1

    def run_until_complete(self, max_steps: int = 1_000) -> int:
        """Gossip until every rank knows every value; returns the step count.

        Only meaningful on an unbounded board: with ``view_size < P`` a view
        can never hold all entries and the call raises immediately.
        """
        check_positive_int(max_steps, "max_steps")
        if self.view_size < self.num_ranks:
            raise RuntimeError(
                f"a bounded view (view_size={self.view_size} < {self.num_ranks} "
                "ranks) can never become complete"
            )
        initial = self._steps
        while not self.is_complete():
            if self._steps - initial >= max_steps:
                raise RuntimeError(
                    f"gossip did not converge within {max_steps} steps; "
                    "did every rank publish a value?"
                )
            self.step()
        return self._steps - initial

    # ------------------------------------------------------------------
    def _merge(self, push_src: np.ndarray, push_dst: np.ndarray) -> None:
        """Freshest-version merge + bounded eviction of one round's pushes.

        Candidate entries are every receiver's current entries plus every
        slot of each pushed view.  Per ``(receiver, source)`` pair the
        freshest version survives, with the receiver's existing entry
        winning ties and, among pushed copies, the later push.  Per
        receiver, the freshest ``view_size - 1`` other entries are retained
        (version ties evict higher source ranks first).  A rank's own slot 0
        is kept as is: versions only grow at their owner, so every copy
        elsewhere is at most as fresh, and the owner keeps ties.

        Both orders are one ``argsort`` of packed int64 keys: the dedupe key
        is ``(receiver, source, tag)`` with the existing entry's tag above
        every push index, and the freshest copy of each pair is a
        ``np.maximum.reduceat`` over ``(version, position)`` keys; the
        eviction key is ``(receiver, age, source)`` with a 31-bit age.
        """
        num_ranks, m = self.num_ranks, self.view_size
        num_pushes = push_src.shape[0]
        rank_bits = int(num_ranks - 1).bit_length()
        tag_bits = num_pushes.bit_length()
        flat_src, flat_val, flat_ver = (
            self._src.reshape(-1), self._val.reshape(-1), self._ver.reshape(-1)
        )
        # Candidates as flat slot indices: receivers' own non-self slots
        # first, then every slot of every pushed view.
        slot_ids = np.arange(num_ranks * m).reshape(num_ranks, m)
        slots = np.concatenate([slot_ids[:, 1:].reshape(-1), slot_ids[push_src].reshape(-1)])
        recv = np.concatenate(
            [np.repeat(np.arange(num_ranks), m - 1), np.repeat(push_dst, m)]
        )
        tag = np.concatenate(
            [
                np.full(num_ranks * (m - 1), (1 << tag_bits) - 1),
                np.repeat(np.arange(num_pushes), m),
            ]
        )
        src, ver = flat_src[slots], flat_ver[slots]
        cand = np.flatnonzero((ver >= 0) & (src != recv))
        slots, recv, src, ver, tag = slots[cand], recv[cand], src[cand], ver[cand], tag[cand]

        new_src = np.full((num_ranks, m), -1, dtype=np.int64)
        new_val = np.zeros((num_ranks, m), dtype=float)
        new_ver = np.full((num_ranks, m), -1, dtype=np.int64)
        new_src[:, 0] = self._src[:, 0]
        new_val[:, 0] = self._val[:, 0]
        new_ver[:, 0] = self._ver[:, 0]
        if slots.size:
            pair = (recv << rank_bits) | src
            order = np.argsort((pair << tag_bits) | tag)
            pair = pair[order]
            first = np.empty(order.size, dtype=bool)
            first[0] = True
            np.not_equal(pair[1:], pair[:-1], out=first[1:])
            pos_bits = int(order.size - 1).bit_length()
            best = np.maximum.reduceat(
                (ver[order] << pos_bits) | np.arange(order.size), np.flatnonzero(first)
            )
            win = order[best & ((1 << pos_bits) - 1)]
            slots, recv = slots[win], recv[win]

            age = (VERSION_LIMIT - 1) - ver[win]
            order = np.argsort((((recv << 31) | age) << rank_bits) | src[win])
            slots, recv = slots[order], recv[order]
            first = np.empty(recv.size, dtype=bool)
            first[0] = True
            np.not_equal(recv[1:], recv[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            col = np.arange(1, recv.size + 1) - np.repeat(
                starts, np.diff(starts, append=recv.size)
            )
            keep = col < m
            slots, rows, col = slots[keep], recv[keep], col[keep]
            new_src[rows, col] = flat_src[slots]
            new_val[rows, col] = flat_val[slots]
            new_ver[rows, col] = flat_ver[slots]

        self._src, self._val, self._ver = new_src, new_val, new_ver

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} outside [0, {self.num_ranks})")


class BatchGossipBoard:
    """``R`` independent gossip boards advanced in lock step, batched.

    The replica-batched execution engine (:mod:`repro.batch`) runs ``R``
    seeded replicas of one configuration; each replica owns an independent
    gossip board with its own RNG stream.  This class stores all of them as
    one ``(R, P, P)`` value/version pair and performs the per-round work --
    target selection and the freshest-version merge -- as single batched
    array operations over every replica at once.

    Bit-identical to ``R`` solo boards: each replica's peer selection
    consumes its own generator exactly like a solo
    :class:`GossipBoard` seeded the same way (one ``(P, P)`` uniform draw
    per round), the stacked draws go through the same target selection, and
    one :func:`merge_pushes` call merges every replica's pushes over the
    ``(R * P, P)`` flattened views (pushes never cross replicas).

    Parameters
    ----------
    num_ranks:
        PEs per replica (``P``).
    seeds:
        One seed (or ready generator) per replica; the batch width ``R`` is
        the length of this sequence.
    config:
        Shared :class:`GossipConfig` of all replicas.
    """

    def __init__(
        self,
        num_ranks: int,
        seeds: Sequence[SeedLike],
        *,
        config: Optional[GossipConfig] = None,
    ) -> None:
        check_positive_int(num_ranks, "num_ranks")
        if len(seeds) == 0:
            raise ValueError("seeds must name at least one replica")
        self.num_ranks = num_ranks
        self.num_replicas = len(seeds)
        self.config = config or GossipConfig()
        self._rngs: List[np.random.Generator] = [ensure_rng(s) for s in seeds]
        self._values = np.zeros(
            (self.num_replicas, num_ranks, num_ranks), dtype=float
        )
        self._versions = np.full(
            (self.num_replicas, num_ranks, num_ranks), -1, dtype=np.int64
        )
        self._steps = 0
        # Per-replica completeness is monotone; cached once reached.
        self._replica_complete = np.zeros(self.num_replicas, dtype=bool)

    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Number of dissemination steps performed so far (all replicas)."""
        return self._steps

    def publish(
        self, replica: int, rank: int, value: float, *, version: Optional[int] = None
    ) -> None:
        """:meth:`GossipBoard.publish` on one replica."""
        self._check_indices(replica, rank)
        v = _checked_version(version, self._steps)
        if v >= self._versions[replica, rank, rank]:
            self._values[replica, rank, rank] = float(value)
            self._versions[replica, rank, rank] = v

    def publish_all(
        self,
        values: np.ndarray,
        *,
        version: Optional[int] = None,
        replica: Optional[int] = None,
    ) -> None:
        """Every rank of every replica (or of one ``replica``) publishes.

        ``values`` is ``(R, P)``, or ``(P,)`` with ``replica``; equivalent to
        ``board_r.publish_all(values[r])`` on the solo boards concerned.
        """
        values = np.asarray(values, dtype=float)
        if replica is None:
            expected, rows = (self.num_replicas, self.num_ranks), slice(None)
        else:
            self._check_indices(replica, 0)
            expected, rows = (self.num_ranks,), slice(replica, replica + 1)
        if values.shape != expected:
            raise ValueError(
                f"values must be {'(replicas, ranks)' if replica is None else 'ranks'}"
                f" = {expected}, got {values.shape}"
            )
        v = _checked_version(version, self._steps)
        board_values, board_versions = self._values[rows], self._versions[rows]
        diag = np.arange(self.num_ranks)
        rep_idx, rank_idx = np.nonzero(v >= board_versions[:, diag, diag])
        board_values[rep_idx, rank_idx, rank_idx] = values.reshape(
            -1, self.num_ranks
        )[rep_idx, rank_idx]
        board_versions[rep_idx, rank_idx, rank_idx] = v

    def local_view(self, replica: int, rank: int) -> Dict[int, float]:
        """The values rank ``rank`` of ``replica`` knows, keyed by source."""
        self._check_indices(replica, rank)
        known = np.flatnonzero(self._versions[replica, rank] >= 0)
        row = self._values[replica, rank]
        return {int(src): float(row[src]) for src in known}

    def known_values_row(self, replica: int, rank: int) -> np.ndarray:
        """Compacted known values of one rank (ascending source order)."""
        self._check_indices(replica, rank)
        row = self._values[replica, rank]
        return row[self._versions[replica, rank] >= 0]

    def own_value(self, replica: int, rank: int) -> Optional[float]:
        """The value ``rank`` of ``replica`` published for itself, if any."""
        self._check_indices(replica, rank)
        if self._versions[replica, rank, rank] < 0:
            return None
        return float(self._values[replica, rank, rank])

    def is_complete(self) -> bool:
        """True when every rank of every replica knows every value."""
        return all(self.replica_complete(r) for r in range(self.num_replicas))

    def replica_complete(self, replica: int) -> bool:
        """True when every rank of ``replica`` knows every value."""
        if not self._replica_complete[replica]:
            self._replica_complete[replica] = bool(
                (self._versions[replica] >= 0).all()
            )
        return bool(self._replica_complete[replica])

    def complete_matrix(self, replica: int) -> Optional[np.ndarray]:
        """One replica's full ``(P, P)`` view matrix, or None while partial.

        Same contract as :meth:`GossipBoard.complete_matrix`; read-only.
        """
        self._check_indices(replica, 0)
        return self._values[replica] if self.replica_complete(replica) else None

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One synchronous push round across every replica.

        With the (default) ``random`` topology, per replica the RNG
        consumption matches a solo board exactly (one ``(P, P)`` uniform
        draw), and the targets of every replica come from one selection
        pass over the stacked ``(R, P, P)`` keys.  The deterministic
        ``ring`` / ``hypercube`` topologies share one edge list across all
        replicas (no RNG), exactly like the solo board, so batch replicas
        stay bit-identical to solo boards under every topology.
        """
        num_ranks, replicas = self.num_ranks, self.num_replicas
        if num_ranks > 1:
            if self.config.topology == "random":
                # Per-replica draws into one buffer (each the stream of a
                # solo board's draw), freed before the merge's transients.
                keys = np.empty((replicas, num_ranks, num_ranks))
                for r, rng in enumerate(self._rngs):
                    rng.random(out=keys[r])
                diag = np.arange(num_ranks)
                keys[:, diag, diag] = np.inf
                k = min(self.config.fanout, num_ranks - 1)
                targets = _smallest_k(keys.reshape(-1, num_ranks), k)
                del keys
                src, dst = _random_push_edges(
                    targets.reshape(replicas, num_ranks, k), self.config.include_root
                )
            else:
                src, dst = topology_push_targets(
                    self._steps, num_ranks, self.config.fanout, self.config.topology
                )
                base = np.repeat(np.arange(replicas) * num_ranks, src.size)
                src, dst = np.tile(src, replicas) + base, np.tile(dst, replicas) + base
            if src.size:
                merge_pushes(
                    self._values.reshape(-1, num_ranks),
                    self._versions.reshape(-1, num_ranks),
                    src,
                    dst,
                )
        self._steps += 1

    def _check_indices(self, replica: int, rank: int) -> None:
        if not 0 <= replica < self.num_replicas:
            raise ValueError(f"replica {replica} outside [0, {self.num_replicas})")
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} outside [0, {self.num_ranks})")
