"""The gossip kernels against their frozen reference copies, bit for bit.

:mod:`seed_gossip_kernels` keeps the dense target selection, the dense
merge and the sparse merge as they were before the rewrite.  Every board
here runs twice from the same seed -- once with the shipped kernels, once
with the reference ones -- through the same publishes, and the raw board
state must agree bit for bit after every round.  The publishes include
equal-version re-publishes, the only way two copies of one ``(source,
version)`` pair can carry different values, so merge tie-breaks are
covered too.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from seed_gossip_kernels import (
    seed_merge_pushes,
    seed_select_push_targets,
    seed_sparse_merge,
)

from repro.simcluster import gossip
from repro.simcluster.gossip import (
    GOSSIP_TOPOLOGIES,
    BatchGossipBoard,
    GossipBoard,
    GossipConfig,
    SparseGossipBoard,
)

#: Board sizes: tiny, odd, and wider than one dense merge block but not a
#: multiple of it.
SIZES = (1, 2, 3, 17, 129, 300)
ROUNDS = 20


class SeedSparseBoard(SparseGossipBoard):
    """Sparse board running the reference merge."""

    _merge = seed_sparse_merge


def seed_dense_kernels():
    """Route the dense boards' selection and merge to the reference copies."""
    return mock.patch.multiple(
        gossip,
        select_push_targets=seed_select_push_targets,
        merge_pushes=seed_merge_pushes,
    )


def publish_round(boards, rng, num_ranks):
    """One round of identical publishes on every board.

    Draws one of: every rank publishes at the step count; every rank
    re-publishes new values at the previous step's version (an
    equal-version re-publish once that version has spread); a random half
    of the ranks publishes; every rank publishes a stale version (ignored).
    """
    kind = int(rng.integers(4))
    values = rng.random(num_ranks)
    ranks = np.flatnonzero(rng.random(num_ranks) < 0.5)
    for board in boards:
        previous = max(board.steps - 1, 0)
        if kind == 0:
            board.publish_all(values)
        elif kind == 1:
            board.publish_all(values, version=previous)
        elif kind == 2:
            for rank in ranks.tolist():
                board.publish(rank, float(values[rank]))
        else:
            board.publish_all(values, version=max(board.steps - 5, 0))


def assert_same_bits(*pairs):
    for new, old in pairs:
        assert new.dtype == old.dtype
        assert new.tobytes() == old.tobytes()


@settings(max_examples=40)
@given(
    num_ranks=st.sampled_from(SIZES),
    fanout=st.integers(1, 4),
    topology=st.sampled_from(GOSSIP_TOPOLOGIES),
    include_root=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_board_matches_reference(num_ranks, fanout, topology, include_root, seed):
    config = GossipConfig(
        fanout=fanout,
        topology=topology,
        include_root=include_root and topology == "random",
    )
    new = GossipBoard(num_ranks, config=config, seed=seed)
    old = GossipBoard(num_ranks, config=config, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(ROUNDS):
        publish_round((new, old), rng, num_ranks)
        new.step()
        with seed_dense_kernels():
            old.step()
        assert_same_bits((new._values, old._values), (new._versions, old._versions))


@settings(max_examples=20)
@given(
    num_ranks=st.sampled_from(SIZES[:5]),
    fanout=st.integers(1, 4),
    topology=st.sampled_from(GOSSIP_TOPOLOGIES),
    include_root=st.booleans(),
    seed=st.integers(0, 2**32 - 8),
)
def test_batch_board_matches_reference(num_ranks, fanout, topology, include_root, seed):
    config = GossipConfig(
        fanout=fanout,
        topology=topology,
        include_root=include_root and topology == "random",
    )
    seeds = [seed + r for r in range(3)]
    batch = BatchGossipBoard(num_ranks, seeds, config=config)
    solos = [GossipBoard(num_ranks, config=config, seed=s) for s in seeds]
    rng = np.random.default_rng(seed)
    for _ in range(ROUNDS):
        values = rng.random((len(seeds), num_ranks))
        batch.publish_all(values)
        for replica, solo in enumerate(solos):
            solo.publish_all(values[replica])
        batch.step()
        with seed_dense_kernels():
            for solo in solos:
                solo.step()
        for replica, solo in enumerate(solos):
            assert_same_bits(
                (batch._values[replica], solo._values),
                (batch._versions[replica], solo._versions),
            )


@settings(max_examples=40)
@given(
    num_ranks=st.sampled_from(SIZES),
    fanout=st.integers(1, 4),
    topology=st.sampled_from(GOSSIP_TOPOLOGIES),
    view_size=st.sampled_from((2, 7, 64, None)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_board_matches_reference(num_ranks, fanout, topology, view_size, seed):
    config = GossipConfig(
        mode="sparse", fanout=fanout, topology=topology, view_size=view_size
    )
    new = SparseGossipBoard(num_ranks, config=config, seed=seed)
    old = SeedSparseBoard(num_ranks, config=config, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(ROUNDS):
        publish_round((new, old), rng, num_ranks)
        new.step()
        old.step()
        assert_same_bits(
            (new._src, old._src), (new._val, old._val), (new._ver, old._ver)
        )

