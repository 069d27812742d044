"""Golden seeded-run equivalence tests of the vectorized simulation core.

Two layers of protection against silent numerical drift in the hot paths:

* **pinned fixtures** (``golden_seed_fixtures.json``): seeded runs of the
  erosion and synthetic applications, standard and ULBA policies, gossip on
  and off, must reproduce the recorded ``total_time`` / ``num_lb_calls`` /
  LB-call iterations.  All values except the two ``ulba + gossip_on`` cases
  are bit-identical to the pre-vectorization core (PR 1); those two were
  re-pinned when gossip peer selection moved to one batched RNG draw per
  round (see the fixture file's ``_note``).
* **reference-core comparison**: the frozen loop implementation in
  ``reference_core.py`` (next to this file), driven with the same batched peer
  selection, must produce *exactly* the same trace totals and LB-call
  iterations as the vectorized core -- the vectorization itself (array
  state, batched EMA, matrix gossip merge, ``reduceat`` stripe sums, lazy
  WIR views) is equivalence-preserving by construction.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.api import RunConfig, Session
from repro.erosion.app import ErosionApplication, ErosionConfig
from repro.lb.adaptive import DegradationTrigger, ULBADegradationTrigger
from repro.lb.standard import StandardPolicy
from repro.lb.ulba import ULBAPolicy
from repro.runtime.skeleton import IterativeRunner, initial_lb_cost_prior
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster

FIXTURE_PATH = Path(__file__).parent / "golden_seed_fixtures.json"


def _reference_core():
    path = Path(__file__).with_name("reference_core.py")
    spec = importlib.util.spec_from_file_location("reference_core", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_REFERENCE = _reference_core()
ReferenceIterativeRunner = _REFERENCE.ReferenceIterativeRunner
ReferenceVirtualCluster = _REFERENCE.ReferenceVirtualCluster

SEED = 11
CASES = {
    "synthetic": dict(num_pes=16, iterations=150),
    "erosion": dict(num_pes=16, iterations=80),
}


def make_app(name):
    if name == "synthetic":
        return SyntheticGrowthApplication(
            256,
            initial_load_per_column=100.0,
            uniform_growth=0.05,
            hot_regions=((0, 16),),
            hot_growth=4.0,
            flop_per_load_unit=1.0e6,
        )
    config = ErosionConfig(
        num_pes=16,
        columns_per_pe=16,
        rows=16,
        num_strong_rocks=1,
        strong_rock_indices=(0,),
        seed=5,
    )
    return ErosionApplication.from_config(config)


def make_policies(policy):
    if policy == "standard":
        return StandardPolicy(), DegradationTrigger()
    return ULBAPolicy(alpha=0.4), ULBADegradationTrigger(alpha=0.4)


def run_vectorized(app_name, policy, use_gossip):
    params = CASES[app_name]
    app = make_app(app_name)
    cluster = VirtualCluster(params["num_pes"])
    prior = initial_lb_cost_prior(
        app.total_load() * app.flop_per_load_unit,
        params["num_pes"],
        cluster.pe_speed,
    )
    workload, trigger = make_policies(policy)
    runner = IterativeRunner(
        cluster,
        app,
        workload_policy=workload,
        trigger_policy=trigger,
        use_gossip=use_gossip,
        initial_lb_cost_estimate=prior,
        seed=SEED,
    )
    return runner.run(params["iterations"])


def run_reference(app_name, policy, use_gossip):
    params = CASES[app_name]
    app = make_app(app_name)
    cluster = ReferenceVirtualCluster(params["num_pes"])
    prior = initial_lb_cost_prior(
        app.total_load() * app.flop_per_load_unit,
        params["num_pes"],
        cluster.pe_speed,
    )
    workload, trigger = make_policies(policy)
    runner = ReferenceIterativeRunner(
        cluster,
        app,
        workload_policy=workload,
        trigger_policy=trigger,
        use_gossip=use_gossip,
        initial_lb_cost_estimate=prior,
        seed=SEED,
        batched_gossip_targets=True,
    )
    return runner.run(params["iterations"])


ALL_CASES = [
    (app_name, policy, use_gossip)
    for app_name in ("synthetic", "erosion")
    for policy in ("standard", "ulba")
    for use_gossip in (False, True)
]


def case_id(case):
    app_name, policy, use_gossip = case
    return f"{app_name}-{policy}-gossip_{'on' if use_gossip else 'off'}"


@pytest.fixture(scope="module")
def golden():
    with FIXTURE_PATH.open() as fh:
        return json.load(fh)["cases"]


class TestGoldenFixtures:
    """Seeded runs reproduce the pinned trace totals and LB schedules."""

    @pytest.mark.parametrize("case", ALL_CASES, ids=case_id)
    def test_matches_pinned_fixture(self, golden, case):
        app_name, policy, use_gossip = case
        expected = golden[case_id(case)]
        result = run_vectorized(app_name, policy, use_gossip)
        assert result.num_lb_calls == expected["num_lb_calls"]
        assert result.trace.lb_iterations() == expected["lb_iterations"]
        assert result.total_time == pytest.approx(
            expected["total_time"], rel=1e-12, abs=0.0
        )
        assert result.trace.iteration_time == pytest.approx(
            expected["iteration_time"], rel=1e-12, abs=0.0
        )
        assert result.trace.lb_cost_time == pytest.approx(
            expected["lb_cost_time"], rel=1e-12, abs=1e-300
        )
        assert result.mean_utilization == pytest.approx(
            expected["mean_utilization"], rel=1e-12, abs=0.0
        )


class TestReferenceCoreEquivalence:
    """Vectorized core == frozen loop core, given the same batched draws."""

    @pytest.mark.parametrize("case", ALL_CASES, ids=case_id)
    def test_exact_equivalence(self, case):
        """Discrete events match exactly; times match to <= 1e-12 relative.

        The only floating-point deviation the vectorization introduces is
        summation reassociation in the per-stripe segmented sums
        (``np.add.reduceat`` folds left-to-right, the historical slice
        ``.sum()`` uses pairwise summation), worth at most an ulp per
        stripe; everything downstream is elementwise-identical.
        """
        app_name, policy, use_gossip = case
        vec = run_vectorized(app_name, policy, use_gossip)
        ref = run_reference(app_name, policy, use_gossip)
        assert vec.num_lb_calls == ref.num_lb_calls
        assert vec.trace.lb_iterations() == ref.trace.lb_iterations()
        assert vec.total_time == pytest.approx(ref.total_time, rel=1e-12, abs=0.0)
        assert vec.trace.iteration_time == pytest.approx(
            ref.trace.iteration_time, rel=1e-12, abs=0.0
        )
        assert vec.trace.lb_cost_time == pytest.approx(
            ref.trace.lb_cost_time, rel=1e-12, abs=0.0
        )
        assert vec.utilization_series() == pytest.approx(
            ref.utilization_series(), rel=0.0, abs=1e-12
        )


class TestSessionFacadeEquivalence:
    """The repro.api facade reproduces the direct IterativeRunner wiring.

    One pinned fixture (the catalog erosion scenario at a fixed size and
    seed) is executed twice: once through
    ``Session.from_config(RunConfig.from_dict(json.loads(s)))`` -- i.e. with
    a full JSON serialization round trip in the path -- and once through the
    pre-redesign hand wiring (catalog build + policies + prior +
    ``IterativeRunner``).  Trace totals and LB schedules must be
    bit-identical: the facade is pure plumbing, not a numerical change.
    """

    ITERATIONS = 60

    def _config_json(self, policy):
        payload = {
            "cluster": {"num_pes": 16},
            "policy": {
                "name": policy,
                "params": {} if policy == "standard" else {"alpha": 0.4},
            },
            "scenario": {
                "name": "erosion",
                "columns_per_pe": 16,
                "rows": 16,
                "iterations": self.ITERATIONS,
                "seed": SEED,
            },
        }
        return json.dumps(payload)

    def _run_direct(self, policy):
        from repro.scenarios.base import ScenarioSpec
        from repro.scenarios.registry import get_scenario
        from repro.simcluster.comm import CommCostModel

        spec = ScenarioSpec(
            num_pes=16, columns_per_pe=16, rows=16, iterations=self.ITERATIONS, seed=SEED
        )
        instance = get_scenario("erosion").build(spec)
        app = instance.application
        # The config's interconnect defaults, wired by hand as every driver
        # did before the redesign.
        cluster = VirtualCluster(
            16, cost_model=CommCostModel(latency=5.0e-6, bandwidth=2.0e9)
        )
        prior = initial_lb_cost_prior(
            app.total_load() * app.flop_per_load_unit, 16, cluster.pe_speed
        )
        workload, trigger = make_policies(policy)
        runner = IterativeRunner(
            cluster,
            app,
            workload_policy=workload,
            trigger_policy=trigger,
            initial_lb_cost_estimate=prior,
            bytes_per_load_unit=1200.0,  # the canonical erosion value
            seed=SEED,
        )
        return runner.run(self.ITERATIONS)

    @pytest.mark.parametrize("policy", ["standard", "ulba"])
    def test_session_bit_identical_to_direct_wiring(self, policy):
        session = Session.from_config(
            RunConfig.from_dict(json.loads(self._config_json(policy)))
        )
        via_session = session.run()
        direct = self._run_direct(policy)

        assert via_session.num_lb_calls == direct.num_lb_calls
        assert via_session.run.trace.lb_iterations() == direct.trace.lb_iterations()
        assert via_session.total_time == direct.total_time
        assert via_session.run.trace.iteration_time == direct.trace.iteration_time
        assert via_session.run.trace.lb_cost_time == direct.trace.lb_cost_time
        assert via_session.mean_utilization == direct.mean_utilization
