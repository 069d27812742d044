"""Unit tests of the batched state primitives underneath the engine.

The engine's end-to-end equivalence guard lives in
``test_batch_equivalence.py``; these tests pin the component contracts --
batched PE state and its row views, the ``(R, P, P)`` gossip board, the
batched WIR estimators/database and the CI helper -- in isolation, so a
regression points at the broken layer directly.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.lb.wir import BatchWIRDatabase, WIREstimateArray
from repro.simcluster.gossip import BatchGossipBoard, GossipBoard, GossipConfig
from repro.simcluster.pe import PEStateArrays
from repro.utils.stats import mean_confidence_interval


class TestBatchedPEState:
    def test_shapes_and_size(self):
        state = PEStateArrays(8, 1.0e9, replicas=3)
        assert state.clock.shape == (3, 8)
        assert state.size == 8
        assert state.replicas == 3

    def test_replica_view_shares_memory(self):
        state = PEStateArrays(4, 1.0e9, replicas=2)
        view = state.replica_view(1)
        assert view.replicas is None
        view.clock += 2.0
        assert (state.clock[1] == 2.0).all()
        assert (state.clock[0] == 0.0).all()
        state.busy_time[1, 2] = 7.0
        assert view.busy_time[2] == 7.0

    def test_replica_synchronize_is_per_row(self):
        state = PEStateArrays(3, 1.0e9, replicas=2)
        state.clock[0] = [1.0, 5.0, 2.0]
        state.clock[1] = [4.0, 0.0, 3.0]
        latest = state.synchronize(1.0)
        assert latest == 6.0
        assert (state.clock[0] == 6.0).all()
        assert (state.clock[1] == 5.0).all()

    def test_view_synchronize_matches_solo_branch(self):
        batch = PEStateArrays(3, 1.0e9, replicas=2)
        solo = PEStateArrays(3, 1.0e9)
        for target in (batch.replica_view(0), solo):
            target.clock[:] = [1.0, 2.0, 0.5]
            assert target.synchronize(0.25) == 2.25
        assert np.array_equal(batch.clock[0], solo.clock)

    def test_replica_view_requires_batched_state(self):
        with pytest.raises(ValueError, match="batched"):
            PEStateArrays(4, 1.0e9).replica_view(0)
        with pytest.raises(ValueError, match="outside"):
            PEStateArrays(4, 1.0e9, replicas=2).replica_view(2)

    def test_now_per_replica(self):
        state = PEStateArrays(2, 1.0e9, replicas=2)
        state.clock[0, 1] = 3.0
        state.clock[1, 0] = 1.0
        assert state.now_per_replica().tolist() == [3.0, 1.0]
        assert state.now() == 3.0


class TestBatchGossipBoard:
    @pytest.mark.parametrize("include_root", [False, True])
    @pytest.mark.parametrize("num_ranks", [1, 2, 5, 16])
    def test_bit_identical_to_solo_boards(self, include_root, num_ranks):
        replicas = 5
        config = GossipConfig(fanout=2, include_root=include_root)
        seeds = [100 + r for r in range(replicas)]
        solos = [GossipBoard(num_ranks, config=config, seed=s) for s in seeds]
        batch = BatchGossipBoard(num_ranks, seeds, config=config)
        rng = np.random.default_rng(0)
        for _ in range(25):
            values = rng.random((replicas, num_ranks))
            for r, board in enumerate(solos):
                board.publish_all(values[r])
            batch.publish_all(values)
            for board in solos:
                board.step()
            batch.step()
        for r, board in enumerate(solos):
            for rank in range(num_ranks):
                assert batch.local_view(r, rank) == board.local_view(rank)
        assert batch.is_complete() == all(b.is_complete() for b in solos)

    def test_steps_counter_and_bounds(self):
        batch = BatchGossipBoard(4, [0, 1])
        assert batch.steps == 0
        batch.step()
        assert batch.steps == 1
        with pytest.raises(ValueError, match="replica"):
            batch.local_view(2, 0)
        with pytest.raises(ValueError, match="rank"):
            batch.local_view(0, 4)

    def test_requires_replicas(self):
        with pytest.raises(ValueError, match="at least one replica"):
            BatchGossipBoard(4, [])

    def test_publish_all_shape_checked(self):
        batch = BatchGossipBoard(4, [0, 1])
        with pytest.raises(ValueError, match="replicas, ranks"):
            batch.publish_all(np.zeros(4))

    def test_one_replica_step_peak_memory_matches_solo(self):
        """A one-replica round allocates no more than a solo board's round.

        The key draw goes straight into one preallocated buffer that is
        freed before the merge, so the transient peak of ``step()`` stays
        within 5 % of the solo board's on the same state.
        """
        num_ranks, seed = 256, 7
        solo = GossipBoard(num_ranks, seed=seed)
        batch = BatchGossipBoard(num_ranks, [seed])
        rng = np.random.default_rng(0)
        for _ in range(3):
            values = rng.random(num_ranks)
            solo.publish_all(values)
            batch.publish_all(values[None, :])
            solo.step()
            batch.step()

        def step_peak(board):
            gc.collect()
            tracemalloc.start()
            try:
                board.step()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        solo_peak, batch_peak = step_peak(solo), step_peak(batch)
        assert batch_peak <= 1.05 * solo_peak, (batch_peak, solo_peak)
        for rank in range(num_ranks):
            assert batch.local_view(0, rank) == solo.local_view(rank)


class TestBatchedWIREstimators:
    def test_batched_ema_matches_solo_arrays(self):
        replicas, num_pes = 3, 6
        batch = WIREstimateArray(num_pes, smoothing=0.5, replicas=replicas)
        solos = [WIREstimateArray(num_pes, smoothing=0.5) for _ in range(replicas)]
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.random((replicas, num_pes)) * 10.0
            batched = batch.observe(w)
            for r, solo in enumerate(solos):
                assert np.array_equal(solo.observe(w[r]), batched[r])

    def test_reset_replica_after_migration(self):
        batch = WIREstimateArray(4, replicas=2)
        batch.observe(np.ones((2, 4)))
        batch.observe(np.full((2, 4), 2.0))
        batch.reset_replica_after_migration(0, np.full(4, 9.0))
        rates_before = batch.rates
        batch.observe(np.full((2, 4), 9.0))
        rates = batch.rates
        # Replica 0 was re-anchored at 9.0 -> zero diff; replica 1 jumped.
        assert np.allclose(rates[0], 0.5 * 0.0 + 0.5 * rates_before[0])
        assert (rates[1] > rates[0]).all()

    def test_reset_several_replicas_after_migration(self):
        batch = WIREstimateArray(4, replicas=3)
        single = WIREstimateArray(4, replicas=3)
        for b in (batch, single):
            b.observe(np.ones((3, 4)))
            b.observe(np.full((3, 4), 2.0))
        anchors = np.array([[9.0] * 4, [7.0] * 4])
        batch.reset_replica_after_migration([0, 2], anchors)
        single.reset_replica_after_migration(0, anchors[0])
        single.reset_replica_after_migration(2, anchors[1])
        w = np.full((3, 4), 9.0)
        assert np.array_equal(batch.observe(w), single.observe(w))
        with pytest.raises(ValueError, match="one entry per PE"):
            batch.reset_replica_after_migration([0, 1], anchors[:1])
        with pytest.raises(ValueError, match="outside"):
            batch.reset_replica_after_migration([0, 3], anchors)

    def test_reset_replica_requires_batched_form(self):
        with pytest.raises(ValueError, match="replicas"):
            WIREstimateArray(4).reset_replica_after_migration(0, np.zeros(4))

    def test_per_rank_views_unavailable_when_batched(self):
        batch = WIREstimateArray(4, replicas=2)
        with pytest.raises(TypeError, match="unbatched"):
            batch[0]

    def test_shape_validation(self):
        batch = WIREstimateArray(4, replicas=2)
        with pytest.raises(ValueError, match="shape"):
            batch.observe(np.zeros(4))


class TestBatchWIRDatabase:
    @pytest.mark.parametrize("use_gossip", [True, False])
    def test_views_match_solo_databases(self, use_gossip):
        """Replica views equal scalar references: solo gossip boards, or
        (instant mode) the last published values, known to every rank."""
        replicas, num_ranks = 3, 8
        seeds = [50 + r for r in range(replicas)]
        solos = [GossipBoard(num_ranks, seed=s) for s in seeds]
        batch = BatchWIRDatabase(num_ranks, seeds, use_gossip=use_gossip)
        rng = np.random.default_rng(1)
        for _ in range(15):
            wirs = rng.random((replicas, num_ranks))
            for r, board in enumerate(solos):
                board.publish_all(wirs[r])
                board.step()
            batch.publish_all(wirs)
            batch.disseminate()
        for r, board in enumerate(solos):
            if use_gossip:
                expected = [board.local_view(rank) for rank in range(num_ranks)]
            else:
                expected = [dict(enumerate(wirs[r].tolist()))] * num_ranks
            facade = batch.replica(r)
            assert facade.num_ranks == num_ranks
            for rank in range(num_ranks):
                assert facade.view(rank) == expected[rank]
            views = facade.views()
            assert len(views) == num_ranks
            assert views[0] == expected[0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"use_gossip": False},
            {},
            {"gossip_config": GossipConfig(mode="sparse", view_size=3)},
        ],
        ids=["instant", "dense", "sparse"],
    )
    def test_publish_one_replica_row_matches_per_rank_publish(self, kwargs):
        row_db = BatchWIRDatabase(6, [0, 1, 2], **kwargs)
        rank_db = BatchWIRDatabase(6, [0, 1, 2], **kwargs)
        values = np.arange(6.0) + 0.5
        row_db.publish_all(values, replica=1)
        for rank, value in enumerate(values.tolist()):
            rank_db.publish(1, rank, value)
        for replica in range(3):
            for rank in range(6):
                assert row_db.view(replica, rank) == rank_db.view(replica, rank)
        assert row_db.own_rate(0, 0) is None
        with pytest.raises(ValueError, match="ranks"):
            row_db.publish_all(np.zeros((3, 6)), replica=1)
        with pytest.raises(ValueError, match="replica"):
            row_db.publish_all(values, replica=3)

    def test_bounds_checked(self):
        batch = BatchWIRDatabase(4, [0, 1], use_gossip=False)
        with pytest.raises(ValueError, match="replica"):
            batch.replica(2)
        with pytest.raises(ValueError, match="replicas, ranks"):
            batch.publish_all(np.zeros((3, 4)))


class TestMeanConfidenceInterval:
    def test_known_values(self):
        mean, half = mean_confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert mean == 2.5
        # z_{0.975} * s / sqrt(n) with s = sqrt(5/3).
        expected = 1.959963984540054 * np.sqrt(5.0 / 3.0) / 2.0
        assert half == pytest.approx(expected, rel=1e-9)

    def test_single_sample_has_zero_width(self):
        assert mean_confidence_interval([7.0]) == (7.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            mean_confidence_interval([])
        with pytest.raises(ValueError, match="confidence"):
            mean_confidence_interval([1.0, 2.0], confidence=1.5)
