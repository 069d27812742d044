"""Vectorized LB steps of several balancers at once.

:meth:`CentralizedLoadBalancer.execute_many` runs the LB steps of ``k``
independent balancers (the replicas of a batch whose triggers fired in the
same iteration) with one stacked policy decision and one partitioning
pass.  Every report, every balancer's history and every cluster's state
must equal those of ``k`` separate :meth:`~CentralizedLoadBalancer.execute`
calls, down to the last float.  ``execute`` is the ``k = 1`` case; it is
checked against the loop-based LB step of the frozen reference core.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.lb.base import LBContext
from repro.lb.centralized import CentralizedLoadBalancer
from repro.lb.standard import StandardPolicy
from repro.lb.ulba import ULBAPolicy
from repro.lb.wir import OverloadDetector, WIRDatabase
from repro.partitioning.stripe import StripePartitioner
from repro.simcluster.cluster import VirtualCluster

NUM_PES = 16
COLUMNS = 96


def _reference_core():
    path = Path(__file__).resolve().parents[1] / "runtime" / "reference_core.py"
    spec = importlib.util.spec_from_file_location("reference_core", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_REFERENCE = _reference_core()


def _db(rates, use_gossip, seed):
    db = WIRDatabase(NUM_PES, use_gossip=use_gossip, seed=seed)
    db.publish_all(rates)
    if use_gossip:
        for _ in range(30):
            db.disseminate()
        assert db.complete_matrix() is not None
    return db


def _context(db, iteration=7):
    return LBContext(
        iteration=iteration,
        pe_workloads=(100.0,) * NUM_PES,
        wir_views=db.views(),
        average_lb_cost=1.0,
        pe_speed=1.0e9,
    )


def _plain(context):
    """The context with plain per-rank dict views: the per-rank ULBA rule."""
    views = tuple(context.wir_view_of(rank) for rank in range(NUM_PES))
    return dataclasses.replace(context, wir_views=views)


def _inputs(k, rng, use_gossip):
    """k WIR databases (some with hotspots), column loads and partitions."""
    rates = rng.random((k, NUM_PES))
    rates[0, 3] = 50.0  # one overloading rank
    if k > 2:
        rates[2, :10] = 40.0  # a majority: downgraded to the even split
    dbs = [_db(rates[i], use_gossip, seed=i) for i in range(k)]
    loads = rng.random((k, COLUMNS)) * 5.0 + 0.5
    partitioner = StripePartitioner(NUM_PES)
    partitions = [partitioner.partition(rng.random(COLUMNS) + 0.5) for _ in range(k)]
    return dbs, loads, partitions


def _balancers(policies):
    return [CentralizedLoadBalancer(VirtualCluster(NUM_PES), p) for p in policies]


def _assert_same_steps(solo, solo_reports, many, many_reports):
    assert many_reports == solo_reports
    for a, b in zip(solo, many):
        assert a.history == b.history
        assert a.average_cost == b.average_cost
        assert np.array_equal(a.cluster.state.clock, b.cluster.state.clock)
        assert np.array_equal(a.cluster.state.lb_time, b.cluster.state.lb_time)
        assert a.cluster.trace.lb_events == b.cluster.trace.lb_events
        assert a.cluster.comm.comm_time == b.cluster.comm.comm_time


@pytest.mark.parametrize("use_gossip", [False, True])
@pytest.mark.parametrize(
    "make_policies",
    [
        lambda k: [ULBAPolicy(alpha=0.2 + 0.1 * i) for i in range(k)],
        lambda k: [StandardPolicy() for _ in range(k)],
        lambda k: [
            ULBAPolicy(alpha=0.4) if i % 2 else StandardPolicy() for i in range(k)
        ],
        lambda k: [
            ULBAPolicy(alpha=0.4, detector=OverloadDetector(threshold=1.0 + i))
            for i in range(k)
        ],
    ],
    ids=["ulba", "standard", "mixed", "ulba-distinct-detectors"],
)
def test_execute_many_equals_separate_executes(use_gossip, make_policies):
    k = 4
    dbs, loads, partitions = _inputs(k, np.random.default_rng(3), use_gossip)
    solo = _balancers(make_policies(k))
    solo_reports = [
        balancer.execute(_context(db), row, current_partition=current)
        for balancer, db, row, current in zip(solo, dbs, loads, partitions)
    ]
    many = _balancers(make_policies(k))
    many_reports = CentralizedLoadBalancer.execute_many(
        many, [_context(db) for db in dbs], loads, partitions
    )
    _assert_same_steps(solo, solo_reports, many, many_reports)


def test_execute_many_covers_every_ulba_decision_kind():
    """The stacked ULBA pass yields underloading, even and downgraded
    decisions in one call, each equal to the per-rank rule's decision."""
    rates = np.random.default_rng(3).random((4, NUM_PES))
    rates[0, 3] = 50.0  # one overloading rank
    rates[1] = 1.0  # no spread, no overloading: the even split
    rates[2, :10] = 40.0  # a majority: downgraded to the even split
    contexts = [_context(_db(row, False, seed=i)) for i, row in enumerate(rates)]

    def policies():
        return [
            ULBAPolicy(alpha=0.4, detector=OverloadDetector(threshold=0.5))
            for _ in contexts
        ]

    many = ULBAPolicy.decide_many(policies(), contexts)
    assert many == [p.decide(_plain(c)) for p, c in zip(policies(), contexts)]
    assert many[0].overloading_ranks == (3,)
    assert not many[0].downgraded_to_standard
    assert many[1].overloading_ranks == () and many[1].is_even
    assert many[2].downgraded_to_standard and many[2].is_even
    assert 0 < many[3].num_overloading < NUM_PES // 2
    assert not many[3].is_even


@pytest.mark.parametrize("with_current", [True, False])
def test_one_step_matches_the_reference_core(with_current):
    """``execute`` against the reference core's loop-based LB step, whose
    policy sees plain dict views (the per-rank z-score rule)."""
    dbs, loads, partitions = _inputs(1, np.random.default_rng(5), use_gossip=False)
    current = partitions[0] if with_current else None
    reference = _REFERENCE.ReferenceCentralizedLoadBalancer(
        _REFERENCE.ReferenceVirtualCluster(NUM_PES), ULBAPolicy()
    )
    expected = reference.execute(
        _plain(_context(dbs[0])), loads[0], current_partition=current
    )
    (balancer,) = _balancers([ULBAPolicy()])
    report = balancer.execute(_context(dbs[0]), loads[0], current_partition=current)
    assert report == expected
    assert report.decision.overloading_ranks == (3,)
    assert balancer.history == reference.history


def test_execute_many_rejects_mixed_cluster_sizes():
    balancers = [
        CentralizedLoadBalancer(VirtualCluster(4), StandardPolicy()),
        CentralizedLoadBalancer(VirtualCluster(8), StandardPolicy()),
    ]
    partitioner = StripePartitioner(4)
    with pytest.raises(ValueError, match="one size"):
        CentralizedLoadBalancer.execute_many(
            balancers,
            [None, None],
            np.ones((2, 16)),
            [partitioner.uniform_partition(16)] * 2,
        )


def test_stale_gossip_views_are_judged_rank_by_rank():
    """Complete but differing dense views: each rank judges its own row."""
    dbs = []
    for seed in (4, 5):
        db = WIRDatabase(NUM_PES, seed=seed)
        db.publish_all(np.ones(NUM_PES))
        for _ in range(30):
            db.disseminate()
        rates = np.ones(NUM_PES)
        rates[3] = 50.0
        db.publish_all(rates)  # a newer version, known to few ranks yet
        db.disseminate()
        matrix = db.complete_matrix()
        assert matrix is not None and not (matrix == matrix[0]).all()
        dbs.append(db)
    contexts = [_context(db) for db in dbs]
    expected = [ULBAPolicy().decide(_plain(c)) for c in contexts]
    assert expected[0].overloading_ranks == (3,)
    assert [ULBAPolicy().decide(c) for c in contexts] == expected
    assert ULBAPolicy.decide_many([ULBAPolicy(), ULBAPolicy()], contexts) == expected


@pytest.mark.parametrize("use_gossip", [False, True])
def test_stacked_overload_mask_matches_per_matrix(use_gossip):
    rng = np.random.default_rng(9)
    dbs = [_db(rng.random(NUM_PES) * (1 + 20 * (i == 1)), use_gossip, i) for i in range(3)]
    matrices = [db.complete_matrix() for db in dbs]
    detector = OverloadDetector(threshold=1.5)
    stacked = detector.overloading_mask_from_views(np.stack(matrices))
    for matrix, flags in zip(matrices, stacked):
        assert np.array_equal(detector.overloading_mask_from_views(matrix), flags)
