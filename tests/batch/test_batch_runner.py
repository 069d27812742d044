"""Construction contracts and result surface of :class:`BatchRunner`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchResult, BatchRunner
from repro.lb.registry import make_policy_pair
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster


def make_apps(replicas, num_pes=8, columns_per_pe=8):
    num_columns = num_pes * columns_per_pe
    return [
        SyntheticGrowthApplication(
            num_columns, hot_regions=[(0, num_columns // 8)], hot_growth=4.0
        )
        for _ in range(replicas)
    ]


class TestConstruction:
    def test_seed_count_must_match_replicas(self):
        with pytest.raises(ValueError, match="one seed per replica"):
            BatchRunner(8, make_apps(3), seeds=[0, 1])

    def test_requires_at_least_one_replica(self):
        with pytest.raises(ValueError, match="at least one replica"):
            BatchRunner(8, [], seeds=[])

    def test_rejects_shared_policy_instances(self):
        apps = make_apps(2)
        workload, trigger = make_policy_pair("standard")
        with pytest.raises(ValueError, match="own instance"):
            BatchRunner(
                8,
                apps,
                seeds=[0, 1],
                workload_policies=[workload, workload],
                trigger_policies=[trigger, trigger],
            )

    def test_rejects_column_count_mismatch(self):
        apps = make_apps(1) + [SyntheticGrowthApplication(24)]
        with pytest.raises(ValueError, match="same number of"):
            BatchRunner(8, apps, seeds=[0, 1])

    def test_rejects_fewer_columns_than_pes(self):
        apps = [SyntheticGrowthApplication(4), SyntheticGrowthApplication(4)]
        with pytest.raises(ValueError, match="fewer than"):
            BatchRunner(8, apps, seeds=[0, 1])

    def test_prior_list_length_checked(self):
        with pytest.raises(ValueError, match="prior per replica"):
            BatchRunner(8, make_apps(2), seeds=[0, 1], initial_lb_cost_estimates=[0.1])

    def test_state_is_replica_batched(self):
        runner = BatchRunner(8, make_apps(3), seeds=[0, 1, 2])
        assert runner.state.clock.shape == (3, 8)
        assert len(runner.clusters) == 3
        assert runner.clusters[1].state.clock.base is runner.state.clock

    def test_caller_cluster_needs_one_replica_of_its_size(self):
        with pytest.raises(ValueError, match="exactly one replica"):
            BatchRunner(8, make_apps(2), seeds=[0, 1], cluster=VirtualCluster(8))
        with pytest.raises(ValueError, match="exactly one replica"):
            BatchRunner(8, make_apps(1), seeds=[0], cluster=VirtualCluster(4))

    def test_observers_need_an_unchunked_run(self):
        with pytest.raises(ValueError, match="unchunked"):
            BatchRunner(
                8,
                make_apps(2),
                seeds=[0, 1],
                memory_budget_bytes=1,
                on_lb_step=lambda replica, iteration, report: None,
            )

    def test_observers_see_every_replica(self):
        elapsed, steps = [], []
        runner = BatchRunner(
            8,
            make_apps(2),
            seeds=[0, 1],
            on_iteration=lambda it, times: elapsed.append(times.copy()),
            on_lb_step=lambda replica, it, report: steps.append((replica, it, report)),
        )
        result = runner.run(30)
        assert steps
        assert np.array_equal(np.stack(elapsed), result.iteration_time_trajectories().T)
        for r, replica in enumerate(result):
            assert [s[2] for s in steps if s[0] == r] == replica.lb_reports
            assert [s[1] for s in steps if s[0] == r] == [rep.iteration for rep in replica.lb_reports]


class TestBatchResult:
    @pytest.fixture(scope="class")
    def result(self):
        runner = BatchRunner(8, make_apps(4), seeds=[0, 1, 2, 3])
        return runner.run(25)

    def test_shapes(self, result):
        assert isinstance(result, BatchResult)
        assert result.num_replicas == 4
        assert result.total_times().shape == (4,)
        assert result.lb_calls().shape == (4,)
        assert result.mean_utilizations().shape == (4,)
        assert result.utilization_trajectories().shape == (4, 25)
        assert result.iteration_time_trajectories().shape == (4, 25)
        assert result.mean_utilization_trajectory().shape == (25,)

    def test_indexing_and_iteration(self, result):
        assert result[0] is result.replicas[0]
        assert [r.policy_name for r in result] == ["standard"] * 4

    def test_aggregate_keys_and_consistency(self, result):
        agg = result.aggregate()
        assert agg["replicas"] == 4
        assert agg["total_time"] == pytest.approx(result.total_times().mean())
        assert agg["total_time_ci"] >= 0.0
        assert 0.0 < agg["mean_utilization"] <= 1.0
        assert agg["lb_calls"] == pytest.approx(result.lb_calls().mean())

    def test_summary_carries_seeds_and_policy_names(self, result):
        info = result.summary()
        assert info["seeds"] == (0, 1, 2, 3)
        assert info["policy"] == "standard"
        assert info["trigger"] == "degradation"

    def test_different_seeds_diverge_under_ulba(self):
        # The standard pair never reads the gossiped WIR views, so seeds
        # cannot diverge there; ULBA consumes them, so per-replica gossip
        # streams must produce distinct trajectories.  16 PEs at fanout 2
        # keep the views stale long enough for the streams to matter.
        from repro.runtime.skeleton import initial_lb_cost_prior

        num_columns = 16 * 8
        apps = [
            SyntheticGrowthApplication(
                num_columns, hot_regions=[(0, num_columns // 16)], hot_growth=5.0
            )
            for _ in range(4)
        ]
        pairs = [make_policy_pair("ulba", alpha=0.4) for _ in apps]
        prior = initial_lb_cost_prior(
            apps[0].total_load() * apps[0].flop_per_load_unit, 16, 1.0e9
        )
        runner = BatchRunner(
            16,
            apps,
            seeds=[11, 22, 33, 44],
            workload_policies=[pair[0] for pair in pairs],
            trigger_policies=[pair[1] for pair in pairs],
            initial_lb_cost_estimates=prior,
        )
        times = runner.run(60).total_times()
        assert np.unique(times).size > 1
