"""Frozen gossip kernels of the reference implementation (test oracle).

These are the dense target selection (``argpartition``), the dense
freshest-version merge (grouped ``np.maximum.reduceat`` over
``version * num_pushes + push`` keys) and the sparse merge (two multi-key
``np.lexsort`` passes) exactly as they were before the kernels in
:mod:`repro.simcluster.gossip` were rewritten for speed.  They are kept,
unchanged, only as the reference the rewritten kernels must match bit for
bit (``test_gossip_kernel_oracle.py``) and as the baseline of the large-P
kernel benchmark.  They are not part of the package.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def seed_select_push_targets(
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
    if num_ranks == 1:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    k = min(fanout, num_ranks - 1)
    keys = rng.random((num_ranks, num_ranks))
    np.fill_diagonal(keys, np.inf)
    targets = np.argpartition(keys, k - 1, axis=1)[:, :k]

    src = np.repeat(np.arange(num_ranks, dtype=np.intp), k)
    dst = targets.ravel().astype(np.intp, copy=False)
    if include_root:
        # Ranks != 0 whose targets missed rank 0 push to it as well.
        missing_root = np.flatnonzero(~(targets == 0).any(axis=1))
        missing_root = missing_root[missing_root != 0]
        if missing_root.size:
            src = np.concatenate([src, missing_root.astype(np.intp)])
            dst = np.concatenate(
                [dst, np.zeros(missing_root.size, dtype=np.intp)]
            )
    return src, dst


def seed_merge_pushes(
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

    Each push's per-entry version is packed with its push index into one
    int64 key, so a grouped ``np.maximum.reduceat`` per receiver yields both
    the freshest incoming version and a push that carries it; entries whose
    version strictly increases take that push's value.  Which of several
    equal-version pushes wins is immaterial: copies of the same ``(source,
    version)`` pair hold the same value.
    """
    num_pushes = src.shape[0]
    order = np.argsort(dst, kind="stable")
    dst_sorted = dst[order]
    boundaries = np.empty(num_pushes, dtype=bool)
    boundaries[0] = True
    np.not_equal(dst_sorted[1:], dst_sorted[:-1], out=boundaries[1:])
    group_starts = np.flatnonzero(boundaries)
    receivers = dst_sorted[group_starts]
    src_sorted = src[order]

    # key = version * num_pushes + push_position: max key <=> max version,
    # ties resolved towards later (value-identical) pushes.
    keys = versions[src_sorted] * num_pushes
    keys += np.arange(num_pushes)[:, None]
    best = np.maximum.reduceat(keys, group_starts, axis=0)
    incoming_ver = best // num_pushes

    current_ver = versions[receivers]
    improved = incoming_ver > current_ver
    if not improved.any():
        return
    # Gather only the winning pushes' values (still the pre-round state:
    # nothing has been written yet).
    entry = np.arange(values.shape[1])
    incoming_val = values[src_sorted[best % num_pushes], entry]
    values[receivers] = np.where(improved, incoming_val, values[receivers])
    versions[receivers] = np.where(improved, incoming_ver, current_ver)


def seed_sparse_merge(self, push_src: np.ndarray, push_dst: np.ndarray) -> None:
    """Freshest-version merge + bounded eviction of one round's pushes.

    Candidate entries are every receiver's current entries plus every
    slot of each pushed view.  Per ``(receiver, source)`` pair the
    freshest version survives, with the receiver's existing entry
    winning ties (value-neutral, as in :func:`merge_pushes`).  Per
    receiver, the own entry is pinned to slot 0 and the freshest
    ``view_size - 1`` other entries are retained (version ties evict
    higher source ranks first).
    """
    num_ranks, m = self.num_ranks, self.view_size

    # Candidate pool: existing entries first (lower priority bit wins
    # version ties for the receiver's own copy).
    recv = np.concatenate(
        [
            np.repeat(np.arange(num_ranks, dtype=np.int64), m),
            np.repeat(push_dst.astype(np.int64), m),
        ]
    )
    src = np.concatenate([self._src.reshape(-1), self._src[push_src].reshape(-1)])
    val = np.concatenate([self._val.reshape(-1), self._val[push_src].reshape(-1)])
    ver = np.concatenate([self._ver.reshape(-1), self._ver[push_src].reshape(-1)])
    existing = np.zeros(recv.size, dtype=bool)
    existing[: num_ranks * m] = True

    known = ver >= 0
    recv, src, val, ver, existing = (
        recv[known],
        src[known],
        val[known],
        ver[known],
        existing[known],
    )
    if recv.size == 0:
        return

    # Dedupe per (receiver, source): after the lexsort the last element
    # of each group carries the max (version, existing) pair, i.e. the
    # freshest version with receiver-keeps-ties semantics.
    pair = recv * num_ranks + src
    order = np.lexsort((existing, ver, pair))
    pair_sorted = pair[order]
    last = np.empty(pair_sorted.size, dtype=bool)
    last[-1] = True
    np.not_equal(pair_sorted[1:], pair_sorted[:-1], out=last[:-1])
    winners = order[last]
    recv, src, val, ver = recv[winners], src[winners], val[winners], ver[winners]

    new_src = np.full((num_ranks, m), -1, dtype=np.int64)
    new_val = np.zeros((num_ranks, m), dtype=float)
    new_ver = np.full((num_ranks, m), -1, dtype=np.int64)
    new_src[:, 0] = np.arange(num_ranks)

    self_mask = src == recv
    self_recv = recv[self_mask]
    new_val[self_recv, 0] = val[self_mask]
    new_ver[self_recv, 0] = ver[self_mask]

    other = ~self_mask
    o_recv, o_src = recv[other], src[other]
    o_val, o_ver = val[other], ver[other]
    if o_recv.size:
        # Freshest (view_size - 1) other entries per receiver: sort by
        # (receiver, -version, source) and keep the first m-1 positions
        # of each receiver group.
        order = np.lexsort((o_src, -o_ver, o_recv))
        recv_sorted = o_recv[order]
        boundary = np.empty(recv_sorted.size, dtype=bool)
        boundary[0] = True
        np.not_equal(recv_sorted[1:], recv_sorted[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        group = np.cumsum(boundary) - 1
        pos = np.arange(recv_sorted.size) - starts[group]
        keep = pos < m - 1
        kept = order[keep]
        slot = pos[keep] + 1
        new_src[o_recv[kept], slot] = o_src[kept]
        new_val[o_recv[kept], slot] = o_val[kept]
        new_ver[o_recv[kept], slot] = o_ver[kept]

    self._src, self._val, self._ver = new_src, new_val, new_ver
