"""LB steps of replicas that fire in the same iteration run together.

The engine hands every replica whose trigger fired in one iteration to one
:meth:`~repro.lb.centralized.CentralizedLoadBalancer.execute_many` call
(stacked policy decision, one partitioning pass).  These batches mix
replicas that fire together with replicas that fire alone, and ULBA
decisions that underload, keep the even split or hit the majority guard;
every replica must still be bit-identical to its own solo run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchRunner
from repro.lb.adaptive import PeriodicTrigger
from repro.lb.centralized import CentralizedLoadBalancer
from repro.lb.registry import make_policy_pair
from repro.lb.ulba import ULBAPolicy
from repro.runtime.skeleton import IterativeRunner
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster

NUM_PES = 16
COLUMNS = NUM_PES * 12
ITERATIONS = 80
SEEDS = [3, 4, 5, 6]
#: Replicas 0 and 1 share their dynamics (their LB steps coincide in
#: instant mode); 2 and 3 grow their hotspot at other rates.
HOT_GROWTH = [6.0, 6.0, 3.0, 9.0]
PRIOR = 0.0005


def make_app(r):
    return SyntheticGrowthApplication(
        COLUMNS, hot_regions=[(0, COLUMNS // 8)], hot_growth=HOT_GROWTH[r]
    )


def ulba_pairs():
    # A z-score threshold of 1.5 lets 16 PEs flag overloading ranks; the
    # alphas differ per replica, the detector parameters do not.
    return [
        make_policy_pair("ulba", alpha=0.2 + 0.1 * r, threshold=1.5)
        for r in range(len(SEEDS))
    ]


def periodic_pairs():
    return [
        (ULBAPolicy(alpha=0.4) if r % 2 else make_policy_pair("standard")[0],
         PeriodicTrigger(10))
        for r in range(len(SEEDS))
    ]


def run_solo(r, pair, use_gossip):
    workload, trigger = pair
    cluster = VirtualCluster(NUM_PES)
    runner = IterativeRunner(
        cluster,
        make_app(r),
        workload_policy=workload,
        trigger_policy=trigger,
        use_gossip=use_gossip,
        initial_lb_cost_estimate=PRIOR,
        seed=SEEDS[r],
    )
    return runner.run(ITERATIONS), cluster


@pytest.mark.parametrize("use_gossip", [False, True])
@pytest.mark.parametrize("pairs", [ulba_pairs, periodic_pairs], ids=["ulba", "periodic"])
def test_replicas_firing_together_match_solo_runs(use_gossip, pairs, monkeypatch):
    calls = []
    execute_many = CentralizedLoadBalancer.execute_many

    def spy(balancers, contexts, column_loads, current_partitions):
        calls.append(len(balancers))
        return execute_many(balancers, contexts, column_loads, current_partitions)

    monkeypatch.setattr(CentralizedLoadBalancer, "execute_many", staticmethod(spy))
    batch_pairs = pairs()
    runner = BatchRunner(
        NUM_PES,
        [make_app(r) for r in range(len(SEEDS))],
        seeds=SEEDS,
        workload_policies=[p[0] for p in batch_pairs],
        trigger_policies=[p[1] for p in batch_pairs],
        use_gossip=use_gossip,
        initial_lb_cost_estimates=PRIOR,
    )
    batch = runner.run(ITERATIONS)
    monkeypatch.undo()
    # Some iterations balanced several replicas in one call.
    assert max(calls) >= 2

    decisions = []
    for r, pair in enumerate(pairs()):
        solo, cluster = run_solo(r, pair, use_gossip)
        mine = batch.replicas[r]
        assert mine.trace.iterations == solo.trace.iterations
        assert mine.trace.lb_events == solo.trace.lb_events
        assert [
            (x.iteration, x.cost, x.migrated_load, x.decision, x.partition.partition)
            for x in mine.lb_reports
        ] == [
            (x.iteration, x.cost, x.migrated_load, x.decision, x.partition.partition)
            for x in solo.lb_reports
        ]
        assert np.array_equal(cluster.state.clock, runner.state.clock[r])
        assert np.array_equal(cluster.state.lb_time, runner.state.lb_time[r])
        decisions += [x.decision for x in mine.lb_reports]
    if pairs is ulba_pairs:
        # The stacked ULBA pass produced real underloading decisions.
        assert any(d.num_overloading and not d.downgraded_to_standard for d in decisions)
