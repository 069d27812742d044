"""Tests of the Session facade and its streaming event bus."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ClusterConfig,
    EventBus,
    IterationEvent,
    LBStepEvent,
    PhaseEvent,
    PolicyConfig,
    RunConfig,
    RunnerConfig,
    ScenarioConfig,
    Session,
    SessionResult,
    TopologyConfig,
)
from repro.lb.registry import make_policy_pair
from repro.runtime.skeleton import IterativeRunner, initial_lb_cost_prior
from repro.scenarios.base import ScenarioSpec
from repro.scenarios.registry import get_scenario
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.comm import CommCostModel


def small_config(policy="ulba", scenario="synthetic-hotspot", iterations=20, seed=3):
    params = {} if policy == "standard" else {"alpha": 0.4}
    return RunConfig(
        cluster=ClusterConfig(num_pes=8),
        policy=PolicyConfig(policy, params),
        scenario=ScenarioConfig(
            name=scenario, columns_per_pe=16, rows=16, iterations=iterations, seed=seed
        ),
    )


class TestEventBus:
    def test_unknown_event_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown event"):
            bus.on("lb-step", lambda e: None)
        with pytest.raises(ValueError, match="unknown event"):
            bus.emit("nope", None)

    def test_emit_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.on("phase", lambda e: seen.append(("a", e.name)))
        bus.on("phase", lambda e: seen.append(("b", e.name)))
        bus.emit("phase", PhaseEvent("run"))
        assert seen == [("a", "run"), ("b", "run")]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        off = bus.on("iteration", seen.append)
        bus.emit("iteration", IterationEvent(0, 1.0))
        off()
        off()  # idempotent
        bus.emit("iteration", IterationEvent(1, 1.0))
        assert len(seen) == 1

    def test_wildcard_subscription(self):
        bus = EventBus()
        seen = []
        off = bus.on("*", lambda e: seen.append(type(e).__name__))
        bus.emit("phase", PhaseEvent("run"))
        bus.emit("iteration", IterationEvent(0, 1.0))
        assert seen == ["PhaseEvent", "IterationEvent"]
        off()
        bus.emit("phase", PhaseEvent("done"))
        assert len(seen) == 2

    def test_unsubscribe_with_duplicate_callback_keeps_other_subscription(self):
        bus = EventBus()
        seen = []
        off_first = bus.on("phase", seen.append)
        bus.on("phase", seen.append)
        off_first()
        off_first()  # idempotent: must not touch the second subscription
        bus.emit("phase", PhaseEvent("run"))
        assert len(seen) == 1

    def test_has_listeners(self):
        bus = EventBus()
        assert not bus.has_listeners("lb_step")
        off = bus.on("lb_step", lambda e: None)
        assert bus.has_listeners("lb_step")
        off()
        assert not bus.has_listeners("lb_step")


class TestSessionEvents:
    def test_event_stream_matches_result(self):
        session = Session.from_config(small_config())
        iterations = []
        lb_steps = []
        phases = []
        session.on("iteration", lambda e: iterations.append(e))
        session.on("lb_step", lambda e: lb_steps.append(e))
        session.on("phase", lambda e: phases.append(e.name))
        result = session.run()

        assert [e.name for e in map(lambda n: PhaseEvent(n), phases)] == phases
        assert phases == ["run", "done"]
        assert len(iterations) == result.iterations == 20
        assert [e.iteration for e in iterations] == list(range(20))
        assert all(isinstance(e, IterationEvent) and e.elapsed > 0 for e in iterations)
        assert len(lb_steps) == result.num_lb_calls
        assert all(isinstance(e, LBStepEvent) for e in lb_steps)
        assert [e.iteration for e in lb_steps] == result.run.trace.lb_iterations()

    def test_events_do_not_change_results(self):
        quiet = Session.from_config(small_config()).run()
        noisy_session = Session.from_config(small_config())
        noisy_session.on("iteration", lambda e: None)
        noisy_session.on("lb_step", lambda e: None)
        noisy = noisy_session.run()
        assert noisy.total_time == quiet.total_time
        assert noisy.num_lb_calls == quiet.num_lb_calls

    def test_session_on_returns_unsubscribe(self):
        session = Session.from_config(small_config(iterations=5))
        seen = []
        off = session.on("iteration", seen.append)
        off()
        session.run()
        assert seen == []


class TestSessionFromConfig:
    def test_structured_result(self):
        cfg = small_config()
        result = Session.from_config(cfg).run()
        assert isinstance(result, SessionResult)
        assert result.scenario == "synthetic-hotspot"
        assert result.iterations == 20
        assert result.config is cfg
        assert result.total_time > 0.0
        assert result.wall_time >= 0.0
        summary = result.summary()
        assert summary["scenario"] == "synthetic-hotspot"
        assert summary["iterations"] == 20

    def test_unknown_scenario_raises_keyerror(self):
        cfg = small_config()
        bad = RunConfig.from_dict(
            {**cfg.to_dict(), "scenario": {**cfg.scenario.to_dict(), "name": "nope"}}
        )
        with pytest.raises(KeyError, match="unknown scenario"):
            Session.from_config(bad)

    def test_scenario_instance_exposed(self):
        session = Session.from_config(small_config())
        assert session.scenario_instance is not None
        assert session.scenario_instance.name == "synthetic-hotspot"
        assert session.scenario_instance.parameters.num_pes == 8

    def test_json_round_trip_reproduces_run_exactly(self):
        cfg = small_config(policy="ulba", scenario="erosion", iterations=30, seed=11)
        direct = Session.from_config(cfg).run()
        shipped = json.dumps(cfg.to_dict())
        restored = Session.from_config(RunConfig.from_dict(json.loads(shipped))).run()
        assert restored.total_time == direct.total_time
        assert restored.num_lb_calls == direct.num_lb_calls
        assert restored.run.trace.lb_iterations() == direct.run.trace.lb_iterations()

    @pytest.mark.parametrize("policy", ["standard", "ulba", "ulba-dynamic"])
    def test_matches_handwired_runner(self, policy):
        """The facade reproduces the pre-redesign IterativeRunner wiring bit for bit."""
        cfg = small_config(policy=policy)
        via_session = Session.from_config(cfg).run()

        spec = ScenarioSpec(num_pes=8, columns_per_pe=16, rows=16, iterations=20, seed=3)
        instance = get_scenario("synthetic-hotspot").build(spec)
        app = instance.application
        cluster = VirtualCluster(
            8,
            pe_speed=cfg.cluster.pe_speed,
            cost_model=CommCostModel(
                latency=cfg.cluster.latency, bandwidth=cfg.cluster.bandwidth
            ),
        )
        prior = initial_lb_cost_prior(
            app.total_load() * app.flop_per_load_unit, 8, cfg.cluster.pe_speed
        )
        pair_params = {} if policy == "standard" else {"alpha": 0.4}
        workload, trigger = make_policy_pair(policy, **pair_params)
        runner = IterativeRunner(
            cluster,
            app,
            workload_policy=workload,
            trigger_policy=trigger,
            initial_lb_cost_estimate=prior,
            bytes_per_load_unit=cfg.runner.bytes_per_load_unit,
            seed=3,
        )
        direct = runner.run(20)

        assert via_session.num_lb_calls == direct.num_lb_calls
        assert via_session.run.trace.lb_iterations() == direct.trace.lb_iterations()
        assert via_session.total_time == direct.total_time
        assert via_session.mean_utilization == direct.mean_utilization


class TestComponentSession:
    def test_component_constructor_requires_iterations(self):
        spec = ScenarioSpec(num_pes=4, columns_per_pe=8, rows=8, iterations=10, seed=0)
        instance = get_scenario("synthetic-hotspot").build(spec)
        session = Session(VirtualCluster(4), instance.application, seed=0)
        with pytest.raises(ValueError, match="iterations not set"):
            session.run()
        result = session.run(iterations=5)
        assert result.iterations == 5
        assert result.scenario == ""
        assert result.config is None

    def test_runner_config_prior_override(self):
        spec = ScenarioSpec(num_pes=4, columns_per_pe=8, rows=8, iterations=10, seed=0)
        instance = get_scenario("synthetic-hotspot").build(spec)
        session = Session(
            VirtualCluster(4),
            instance.application,
            runner_config=RunnerConfig(lb_cost_prior=0.125),
            seed=0,
        )
        assert session.runner.engine.initial_lb_cost_estimates[0] == 0.125

    def test_topology_controls_gossip(self):
        spec = ScenarioSpec(num_pes=4, columns_per_pe=8, rows=8, iterations=10, seed=0)
        instance = get_scenario("synthetic-hotspot").build(spec)
        session = Session(
            VirtualCluster(4),
            instance.application,
            topology=TopologyConfig(use_gossip=False),
            seed=0,
        )
        assert session.runner.engine.wir_db.use_gossip is False
