"""End-to-end integration tests across the whole stack.

These run the complete pipeline (erosion application -> virtual cluster ->
WIR database -> adaptive trigger -> centralized balancer) under every policy
combination on small problems, and assert the paper's qualitative claims at
that scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.erosion.app import ErosionApplication, ErosionConfig
from repro.experiments.fig4_erosion import run_erosion_case
from repro.lb.adaptive import (
    DegradationTrigger,
    MenonIntervalTrigger,
    NeverTrigger,
    PeriodicTrigger,
    ULBADegradationTrigger,
)
from repro.lb.standard import StandardPolicy
from repro.lb.ulba import ULBAPolicy
from repro.runtime.report import compare_runs
from repro.runtime.skeleton import IterativeRunner
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.comm import CommCostModel

CASE = dict(columns_per_pe=48, rows=48, iterations=60)


def build_runner(policy, trigger, *, num_pes=16, seed=0, config_kwargs=None):
    config_kwargs = config_kwargs or {}
    config = ErosionConfig(
        num_pes=num_pes,
        columns_per_pe=config_kwargs.get("columns_per_pe", 32),
        rows=config_kwargs.get("rows", 32),
        num_strong_rocks=config_kwargs.get("num_strong_rocks", 1),
        seed=seed,
    )
    app = ErosionApplication.from_config(config)
    cluster = VirtualCluster(num_pes, cost_model=CommCostModel(latency=5e-6, bandwidth=2e9))
    prior = 0.5 * app.total_load() * app.flop_per_load_unit / num_pes / cluster.pe_speed
    return IterativeRunner(
        cluster,
        app,
        workload_policy=policy,
        trigger_policy=trigger,
        initial_lb_cost_estimate=prior,
        bytes_per_load_unit=1200.0,
        seed=seed,
    )


class TestAllPolicyCombinations:
    @pytest.mark.parametrize(
        "policy_factory",
        [StandardPolicy, lambda: ULBAPolicy(alpha=0.4)],
        ids=["standard", "ulba"],
    )
    @pytest.mark.parametrize(
        "trigger_factory",
        [
            NeverTrigger,
            lambda: PeriodicTrigger(period=10),
            MenonIntervalTrigger,
            DegradationTrigger,
            lambda: ULBADegradationTrigger(alpha=0.4),
        ],
        ids=["never", "periodic", "menon", "degradation", "ulba-degradation"],
    )
    def test_every_combination_completes(self, policy_factory, trigger_factory):
        runner = build_runner(policy_factory(), trigger_factory(), num_pes=8, seed=1)
        result = runner.run(25)
        assert result.trace.num_iterations == 25
        assert result.total_time > 0.0
        assert 0.0 < result.mean_utilization <= 1.0
        util = result.utilization_series()
        assert np.all((util > 0.0) & (util <= 1.0))


class TestAdaptiveBeatsStaticAndPeriodic:
    def test_adaptive_lb_beats_no_lb_on_imbalanced_app(self):
        """Reactive LB (the standard method with the Zhai trigger) must beat
        static partitioning when imbalance grows -- the premise of the whole
        LB literature the paper builds on."""
        static = build_runner(StandardPolicy(), NeverTrigger(), seed=3).run(60)
        adaptive = build_runner(StandardPolicy(), DegradationTrigger(), seed=3).run(60)
        assert adaptive.total_time < static.total_time
        assert adaptive.mean_utilization > static.mean_utilization

    def test_adaptive_not_worse_than_aggressive_periodic(self):
        """Balancing every iteration pays the LB cost far too often; the
        degradation trigger must do better."""
        eager = build_runner(StandardPolicy(), PeriodicTrigger(period=1), seed=4).run(40)
        adaptive = build_runner(StandardPolicy(), DegradationTrigger(), seed=4).run(40)
        assert adaptive.total_time <= eager.total_time


class TestPaperHeadlineClaims:
    def test_ulba_beats_standard_on_single_strong_rock(self):
        """The Figure 4a headline at reproduction scale: with one strongly
        erodible rock among 32, ULBA (alpha = 0.4) beats the standard
        adaptive method and calls the load balancer at most as often."""
        std = run_erosion_case(
            num_pes=32, num_strong_rocks=1, policy="standard", seed=7, **CASE
        )
        ulba = run_erosion_case(
            num_pes=32, num_strong_rocks=1, policy="ulba", alpha=0.4, seed=7, **CASE
        )
        comparison = compare_runs(std, ulba)
        assert comparison.gain > 0.0
        assert ulba.num_lb_calls <= std.num_lb_calls
        assert comparison.utilization_gain > -0.01

    def test_ulba_gain_shrinks_with_more_strong_rocks(self):
        """Figure 4a shape: the ULBA advantage with three strong rocks does
        not exceed the advantage with one strong rock (same seed)."""
        gains = {}
        for strong in (1, 3):
            std = run_erosion_case(
                num_pes=32, num_strong_rocks=strong, policy="standard", seed=11, **CASE
            )
            ulba = run_erosion_case(
                num_pes=32, num_strong_rocks=strong, policy="ulba", alpha=0.4, seed=11, **CASE
            )
            gains[strong] = compare_runs(std, ulba).gain
        assert gains[1] >= gains[3] - 0.02

    @pytest.mark.parametrize("seed", [1, 2, 3, 13])
    def test_ulba_with_zero_alpha_is_standard(self, seed):
        """With alpha = 0 Algorithm 2's weights reduce to the even split, so
        ULBA runs exactly like the standard method."""
        std = run_erosion_case(
            num_pes=32, num_strong_rocks=1, policy="standard", seed=seed, **CASE
        )
        ulba = run_erosion_case(
            num_pes=32, num_strong_rocks=1, policy="ulba", alpha=0.0, seed=seed, **CASE
        )
        assert ulba.total_time == std.total_time

    def test_ulba_alpha_sensitivity(self):
        """Figure 5 shape: alpha materially changes the ULBA run time (at
        this size alpha = 0.1 and 0.4 differ by about 10 %)."""
        times = {}
        for alpha in (0.1, 0.4):
            run = run_erosion_case(
                num_pes=32, num_strong_rocks=1, policy="ulba", alpha=alpha, seed=13, **CASE
            )
            times[alpha] = run.total_time
        spread = abs(times[0.1] - times[0.4]) / max(times.values())
        assert times[0.1] > 0 and times[0.4] > 0
        assert spread >= 0.05


class TestSyntheticWorkloadPipeline:
    def test_hot_region_is_rebalanced_away(self):
        """On the deterministic synthetic workload the standard adaptive
        pipeline narrows the hot stripe after rebalancing."""
        app = SyntheticGrowthApplication(
            128,
            initial_load_per_column=100.0,
            uniform_growth=0.05,
            hot_regions=[(0, 16)],
            hot_growth=5.0,
            flop_per_load_unit=1.0e6,
        )
        cluster = VirtualCluster(8)
        prior = app.total_load() * app.flop_per_load_unit / 8 / cluster.pe_speed
        runner = IterativeRunner(
            cluster,
            app,
            workload_policy=StandardPolicy(),
            trigger_policy=DegradationTrigger(),
            initial_lb_cost_estimate=0.1 * prior,
            seed=0,
        )
        result = runner.run(80)
        assert result.num_lb_calls >= 1
        assert runner.engine.partitions[0].stripe_widths()[0] < 16
