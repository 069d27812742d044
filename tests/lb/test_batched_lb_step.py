"""The batched pieces of the centralized LB step, bit for bit.

:meth:`CentralizedLoadBalancer.execute_many` accounts the migration of all
``k`` steps in one pass and charges their costs with one
:meth:`VirtualCluster.charge_lb_steps` call.  The migration accounting must
equal the frozen per-row accounting of :mod:`seed_lb_kernels`, and ``k``
batched charges must equal ``k`` sequential :meth:`charge_lb_step` calls,
down to the last float.  The partitions a step reports carry their column
loads as one read-only float64 array, not as a tuple of Python floats.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lb.base import LBContext
from repro.lb.centralized import CentralizedLoadBalancer, _migrated_loads
from repro.lb.standard import StandardPolicy
from repro.lb.ulba import ULBAPolicy
from repro.partitioning.stripe import StripePartition, StripePartitioner
from repro.partitioning.weighted import Partition1D
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.comm import CommCostModel


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TESTS = Path(__file__).resolve().parents[1]
_SEED = _load(_TESTS / "lb" / "seed_lb_kernels.py")
_REFERENCE = _load(_TESTS / "runtime" / "reference_core.py")


def _random_partition(rng, num_pes, loads):
    """A partition with sorted random cuts (empty stripes included)."""
    cuts = np.sort(rng.integers(0, loads.size + 1, num_pes - 1))
    bounds = np.concatenate(([0], cuts, [loads.size]))
    return StripePartition(partition=Partition1D(boundaries=bounds), column_loads=loads)


@settings(max_examples=100)
@given(
    k=st.sampled_from([1, 2, 7]),
    num_pes=st.integers(1, 6),
    extra_columns=st.integers(0, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_migration_matches_the_per_row_oracle(k, num_pes, extra_columns, seed):
    rng = np.random.default_rng(seed)
    columns = num_pes + extra_columns
    # Magnitudes spread over nine decades, so a different summation order
    # would round differently.
    loads = rng.random((k, columns)) * 10.0 ** rng.integers(-3, 6, (k, columns))
    loads[rng.random((k, columns)) < 0.2] = 0.0
    olds = [
        None if rng.random() < 0.3 else _random_partition(rng, num_pes, row)
        for row in loads
    ]
    news = [_random_partition(rng, num_pes, row) for row in loads]

    migrated, per_pe = _migrated_loads(loads, olds, news)

    assert per_pe.shape == (k, num_pes)
    for i in range(k):
        expected_total, expected_per_pe = _SEED._migration(loads[i], olds[i], news[i])
        assert type(migrated[i]) is float
        assert np.float64(migrated[i]).tobytes() == np.float64(expected_total).tobytes()
        assert per_pe[i].tobytes() == expected_per_pe.tobytes()


def test_batched_migration_rejects_a_column_count_mismatch():
    partitioner = StripePartitioner(2)
    loads = np.ones((2, 20))
    news = partitioner.partition_rows(loads, [[0.5, 0.5]] * 2)
    olds = [partitioner.uniform_partition(20), partitioner.uniform_partition(10)]
    with pytest.raises(ValueError, match="same number of columns"):
        _migrated_loads(loads, olds, news)


def _clusters(models, make=VirtualCluster):
    """Clusters whose clocks differ: each ran its own compute steps."""
    clusters = []
    for i, model in enumerate(models):
        cluster = make(8, cost_model=model)
        rng = np.random.default_rng(i)
        for iteration in range(i + 1):
            cluster.compute_step(rng.random(8) * 1.0e7, iteration=iteration)
        clusters.append(cluster)
    return clusters


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("mixed_models", [False, True])
def test_batched_charges_equal_sequential_charges(k, mixed_models):
    """Also against the reference core's collective-by-collective charge,
    since :meth:`charge_lb_step` itself is the ``k = 1`` batched charge (the
    reference sums ``comm_time`` per collective, so it rounds differently
    there)."""
    models = [
        CommCostModel(latency=1.0e-6 * (1 + i * mixed_models), bandwidth=1.0e9)
        for i in range(k)
    ]
    rng = np.random.default_rng(11)
    iterations = [3 + i for i in range(k)]
    partition_seconds = (rng.random(k) * 1.0e-4).tolist()
    volumes = rng.random((k, 8)) * 1.0e6
    volumes[0, :] = 0.0
    roots = [i % 8 for i in range(k)]

    def charge_one_by_one(clusters):
        return [
            cluster.charge_lb_step(
                iteration=iteration,
                partition_seconds=seconds,
                migration_bytes_per_pe=row,
                root=root,
            )
            for cluster, iteration, seconds, row, root in zip(
                clusters, iterations, partition_seconds, volumes, roots
            )
        ]

    sequential = _clusters(models)
    expected = charge_one_by_one(sequential)
    reference = _clusters(models, _REFERENCE.ReferenceVirtualCluster)
    assert charge_one_by_one(reference) == expected
    batched = _clusters(models)
    costs = VirtualCluster.charge_lb_steps(
        batched,
        iterations=iterations,
        partition_seconds=partition_seconds,
        migration_bytes=volumes,
        roots=roots,
    )

    assert costs == expected
    assert len({cluster.now for cluster in batched}) == k  # the clocks differ
    for a, b in zip(sequential, batched):
        assert np.array_equal(a.state.clock, b.state.clock)
        assert np.array_equal(a.state.lb_time, b.state.lb_time)
        assert a.trace.lb_events == b.trace.lb_events
        assert a.comm.comm_time == b.comm.comm_time
        assert a.comm.num_collectives == b.comm.num_collectives
    for ref, b in zip(reference, batched):
        assert [pe.now for pe in ref.pes] == b.state.clock.tolist()
        assert [pe.lb_time for pe in ref.pes] == b.state.lb_time.tolist()
        assert ref.trace.lb_events == b.trace.lb_events
        assert ref.comm.num_collectives == b.comm.num_collectives


def test_batched_charges_reject_a_shared_state():
    """Steps charged from one stacked start would overlap on a shared clock."""
    cluster = VirtualCluster(8)
    cluster.compute_step(np.ones(8) * 1.0e7, iteration=0)
    clock = cluster.state.clock.copy()
    with pytest.raises(ValueError, match="distinct states"):
        VirtualCluster.charge_lb_steps(
            [cluster, cluster],
            iterations=[1, 1],
            partition_seconds=[0.0, 0.0],
            migration_bytes=np.ones((2, 8)),
            roots=[0, 0],
        )
    balancers = [CentralizedLoadBalancer(cluster, StandardPolicy()) for _ in range(2)]
    with pytest.raises(ValueError, match="distinct states"):
        CentralizedLoadBalancer.execute_many(
            balancers, [_context(8, 1)] * 2, np.ones((2, 16)), [None, None]
        )
    assert np.array_equal(cluster.state.clock, clock)
    assert cluster.trace.lb_events == [] and balancers[0].history == []


def _context(num_pes, iteration):
    return LBContext(
        iteration=iteration,
        pe_workloads=(100.0,) * num_pes,
        wir_views=[{} for _ in range(num_pes)],
    )


def test_reported_column_loads_are_one_read_only_array():
    columns = 96
    loads = np.random.default_rng(2).random((3, columns)) + 0.5
    balancers = [
        CentralizedLoadBalancer(VirtualCluster(8), policy)
        for policy in (StandardPolicy(), ULBAPolicy(), StandardPolicy())
    ]
    reports = CentralizedLoadBalancer.execute_many(
        balancers,
        [_context(8, 4)] * 3,
        loads,
        [StripePartitioner(8).uniform_partition(columns)] * 3,
    )
    reports.append(balancers[0].execute(_context(8, 5), loads[0].tolist()))
    for report in reports:
        column_loads = report.partition.column_loads
        assert isinstance(column_loads, np.ndarray)
        assert column_loads.dtype == np.float64
        assert not column_loads.flags.writeable
        assert column_loads.nbytes == 8 * columns
    assert np.array_equal(reports[0].partition.column_loads, loads[0])
    with pytest.raises(ValueError):
        reports[0].partition.column_loads[0] = 1.0


def test_stripe_partition_equality_compares_values():
    partition = StripePartitioner(2).uniform_partition(4).partition
    as_tuple = StripePartition(partition=partition, column_loads=(1.0, 2.0, 3.0, 4.0))
    as_array = StripePartition(partition=partition, column_loads=np.arange(1.0, 5.0))
    assert as_tuple == as_array
    assert hash(as_tuple) == hash(as_array)
    assert as_tuple != StripePartition(partition=partition, column_loads=np.ones(4))


def test_average_cost_is_the_exact_mean_of_the_step_costs():
    balancer = CentralizedLoadBalancer(VirtualCluster(8), StandardPolicy())
    rng = np.random.default_rng(7)
    current = None
    for iteration in range(50):
        report = balancer.execute(
            _context(8, iteration), rng.random(64) * 100.0, current_partition=current
        )
        current = report.partition
    costs = [report.cost for report in balancer.history]
    assert len(set(costs)) > 1
    assert balancer.average_cost == np.mean(costs)
    with pytest.raises(AttributeError):
        balancer.average_cost = 0.0
