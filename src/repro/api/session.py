"""The Session facade: one entry point from a declarative config to a run.

Every pre-redesign caller wired cluster + partitioner + WIR database +
policies + runner by hand (the figure drivers, the erosion scenario harness,
the campaign runner and the CLI each had their own copy of that wiring).  A
:class:`Session` owns all of it:

>>> from repro.api import PolicyConfig, RunConfig, Session
>>> cfg = RunConfig(policy=PolicyConfig("ulba", {"alpha": 0.4}))
>>> session = Session.from_config(cfg)
>>> unsubscribe = session.on(
...     "lb_step", lambda e: print("LB at iteration", e.iteration)
... )
>>> result = session.run()                         # doctest: +SKIP

``from_config`` resolves the scenario through the catalog and the policy
pair through :mod:`repro.lb.registry`; the lower-level constructor accepts
already-built components (cluster, application, policy objects) for harnesses
like :class:`repro.scenarios.erosion.ErosionScenario` that sweep policy
*objects* rather than names.  Either way the session exposes a streaming
:class:`~repro.api.events.EventBus` (``on("phase" | "iteration" |
"lb_step")``) so progress reporting and tracing subscribe instead of poking
runner internals, and :meth:`run` returns a structured
:class:`SessionResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.api.config import ObsConfig, RunConfig, RunnerConfig, TopologyConfig
from repro.api.events import (
    EV_BATCH_CHUNK,
    EV_ITERATION,
    EV_LB_STEP,
    EV_PHASE,
    BatchChunkEvent,
    EventBus,
    IterationEvent,
    LBStepEvent,
    PhaseEvent,
)
from repro.batch import BatchResult, BatchRunner
from repro.lb.base import TriggerPolicy, WorkloadPolicy
from repro.lb.centralized import LBStepReport
from repro.obs.clock import wall_clock, wall_clock_ns
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import StageProfile, StageProfiler
from repro.obs.trace import TraceWriter
from repro.resilience.errors import SessionStateError
from repro.runtime.skeleton import IterativeRunner, RunResult, StripedApplication
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.comm import CommCostModel
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int

__all__ = ["Session", "SessionResult"]

#: Fixed bucket edges of the per-iteration virtual-duration histogram
#: (seconds, decade-spaced); fixed so worker snapshots merge by addition.
_ITERATION_ELAPSED_EDGES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class SessionResult:
    """Structured outcome of one :meth:`Session.run`."""

    #: The underlying runner result (trace, LB reports, policy names).
    run: RunResult
    #: Catalog name of the scenario ("" for component-built sessions).
    scenario: str
    #: Number of application iterations executed by this call.
    iterations: int
    #: Host wall-clock time of the run (bookkeeping; everything else is
    #: deterministic virtual time).
    wall_time: float
    #: The config the session was built from (None for component-built ones).
    config: Optional[RunConfig] = None

    # ------------------------------------------------------------------
    @property
    def profile(self) -> "Optional[StageProfile]":
        """Stage profile of the run (None unless ``obs.profile`` was on)."""
        return self.run.profile

    @property
    def total_time(self) -> float:
        """Total virtual time of the run (seconds)."""
        return self.run.total_time

    @property
    def num_lb_calls(self) -> int:
        """Number of LB invocations."""
        return self.run.num_lb_calls

    @property
    def mean_utilization(self) -> float:
        """Time-weighted average PE utilization."""
        return self.run.mean_utilization

    def summary(self) -> dict:
        """Flat summary row: trace totals plus session bookkeeping."""
        info = self.run.summary()
        info.update(
            scenario=self.scenario,
            iterations=self.iterations,
            wall_time=self.wall_time,
        )
        return info


class Session:
    """Facade owning cluster, WIR database, partitioner, policies and runner.

    Two construction paths:

    * :meth:`from_config` -- fully declarative: a :class:`RunConfig` names
      the scenario (catalog lookup) and the policy pair (registry lookup)
      and the session builds every component;
    * the constructor -- component-level: the caller passes an
      already-built cluster, application and policy objects, and the
      session still owns runner wiring, the LB-cost prior
      (:meth:`RunnerConfig.resolve_lb_cost_prior`) and the event bus.

    Subscribe to progress with :meth:`on` before calling :meth:`run`.
    Repeated ``run`` calls continue on the same virtual cluster (clocks and
    trace carry over), exactly like calling ``IterativeRunner.run`` again.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        application: StripedApplication,
        workload_policy: Optional[WorkloadPolicy] = None,
        trigger_policy: Optional[TriggerPolicy] = None,
        *,
        runner_config: Optional[RunnerConfig] = None,
        topology: Optional[TopologyConfig] = None,
        seed: SeedLike = None,
        iterations: Optional[int] = None,
        config: Optional[RunConfig] = None,
        scenario_name: str = "",
        scenario_instance: Optional[object] = None,
    ) -> None:
        self.events = EventBus()
        self.config = config
        self.scenario_name = scenario_name
        #: The :class:`~repro.scenarios.base.ScenarioInstance` the session
        #: was built from (None for component-built sessions).
        self.scenario_instance = scenario_instance
        self.runner_config = runner_config if runner_config is not None else RunnerConfig()
        self.topology = topology if topology is not None else TopologyConfig()
        self._default_iterations = iterations
        #: Observability settings (all off for component-built sessions).
        self.obs = config.obs if config is not None else ObsConfig()
        #: Chrome-trace writer of the session (None unless ``obs.trace``).
        self.trace_writer: Optional[TraceWriter] = (
            TraceWriter(max_events=self.obs.trace_max_events)
            if self.obs.trace
            else None
        )
        #: Metrics registry of the session (None unless ``obs.metrics``).
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.obs.metrics else None
        )
        #: Hot-loop stage profiler; built for ``obs.profile`` and also for
        #: ``obs.trace`` (the trace's stage spans come from its probes).
        self.profiler: Optional[StageProfiler] = (
            StageProfiler(trace=self.trace_writer)
            if (self.obs.profile or self.obs.trace)
            else None
        )
        if self.trace_writer is not None:
            self.trace_writer.set_process_name(
                f"repro:{scenario_name}" if scenario_name else "repro:session"
            )
            self.trace_writer.set_thread_name("hot-loop")
            self._subscribe_trace(self.trace_writer)
        prior = self.runner_config.resolve_lb_cost_prior(
            self._total_flop(application), cluster.size, cluster.pe_speed
        )
        #: The underlying Algorithm 1 driver (exposed for advanced use).
        self.runner = IterativeRunner(
            cluster,
            application,
            workload_policy=workload_policy,
            trigger_policy=trigger_policy,
            use_gossip=self.topology.use_gossip,
            gossip_config=self.topology.gossip_config(),
            wir_smoothing=self.topology.wir_smoothing,
            initial_lb_cost_estimate=prior,
            partition_flop_per_column=self.runner_config.partition_flop_per_column,
            bytes_per_load_unit=self.runner_config.bytes_per_load_unit,
            seed=seed,
            on_iteration=self._emit_iteration,
            on_lb_step=self._emit_lb_step,
            profiler=self.profiler,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _total_flop(application: StripedApplication) -> float:
        # Prefer the application's own total_load() accumulator: the erosion
        # experiments and the golden fixtures have always computed the prior
        # from it, and its summation order differs from column_loads().sum()
        # by up to an ulp.
        total_load = getattr(application, "total_load", None)
        if callable(total_load):
            total = float(total_load())
        else:
            total = float(application.column_loads().sum())
        return total * application.flop_per_load_unit

    @classmethod
    def from_config(cls, config: RunConfig) -> "Session":
        """Build a fully wired session from a declarative :class:`RunConfig`.

        Resolves the scenario name against the catalog (raising
        :class:`KeyError` with the registered names on a typo), builds the
        workload instance for ``config.scenario.seed``, the virtual cluster
        for ``config.cluster`` and the policy pair via the LB registry.
        """
        # Imported here, not at module level: the scenario layer consumes
        # repro.api.config (RunnerConfig owns the LB-cost prior), so the
        # import must point downward only at runtime.  Importing the package
        # also registers the built-in catalog.
        import repro.scenarios  # noqa: F401  -- populates the scenario registry
        from repro.scenarios.base import ScenarioSpec
        from repro.scenarios.registry import get_scenario

        scenario = get_scenario(config.scenario.name)
        spec = ScenarioSpec(
            num_pes=config.cluster.num_pes,
            columns_per_pe=config.scenario.columns_per_pe,
            rows=config.scenario.rows,
            iterations=config.scenario.iterations,
            seed=config.scenario.seed,
        )
        instance = scenario.build(spec)
        cluster = VirtualCluster(
            config.cluster.num_pes,
            pe_speed=config.cluster.pe_speed,
            cost_model=CommCostModel(
                latency=config.cluster.latency, bandwidth=config.cluster.bandwidth
            ),
        )
        workload_policy, trigger_policy = config.policy.resolve()
        return cls(
            cluster,
            instance.application,
            workload_policy,
            trigger_policy,
            runner_config=config.runner,
            topology=config.topology,
            seed=config.scenario.seed,
            iterations=config.scenario.iterations,
            config=config,
            scenario_name=config.scenario.name,
            scenario_instance=instance,
        )

    # ------------------------------------------------------------------
    @property
    def cluster(self) -> VirtualCluster:
        """The virtual cluster the session runs on."""
        return self.runner.cluster

    @property
    def application(self) -> StripedApplication:
        """The striped application of the session."""
        return self.runner.application

    def on(self, event: str, callback: Callable[[object], None]) -> Callable[[], None]:
        """Subscribe to ``"phase"`` / ``"iteration"`` / ``"lb_step"`` events.

        Shorthand for ``session.events.on(...)``; returns the unsubscribe
        function.
        """
        return self.events.on(event, callback)

    def _emit_iteration(self, iteration: int, elapsed: float) -> None:
        if self.events.has_listeners(EV_ITERATION):
            self.events.emit(EV_ITERATION, IterationEvent(iteration=iteration, elapsed=elapsed))

    def _emit_lb_step(self, iteration: int, report: LBStepReport) -> None:
        if self.events.has_listeners(EV_LB_STEP):
            self.events.emit(EV_LB_STEP, LBStepEvent(iteration=iteration, report=report))

    # ------------------------------------------------------------------
    def _subscribe_trace(self, writer: TraceWriter) -> None:
        """Mirror bus events into the Chrome trace as instant marks."""

        def _on_phase(event: object) -> None:
            assert isinstance(event, PhaseEvent)
            writer.instant(
                f"phase:{event.name}", wall_clock_ns(), cat="phase"
            )

        def _on_lb_step(event: object) -> None:
            assert isinstance(event, LBStepEvent)
            writer.instant(
                "lb_step",
                wall_clock_ns(),
                cat="lb",
                args={"iteration": event.iteration},
            )

        self.events.on(EV_PHASE, _on_phase)
        self.events.on(EV_LB_STEP, _on_lb_step)

    def _record_run_metrics(self, result: RunResult, iterations: int) -> None:
        """Fold one solo run's outcome into the metrics registry."""
        registry = self.metrics
        if registry is None:
            return
        registry.inc("run/iterations", iterations)
        registry.inc("run/lb_calls", result.num_lb_calls)
        registry.set_gauge("run/total_time_s", result.total_time)
        registry.set_gauge("run/mean_utilization", result.mean_utilization)
        registry.register_histogram(
            "run/iteration_elapsed_s", _ITERATION_ELAPSED_EDGES
        )
        registry.observe(
            "run/iteration_elapsed_s", result.trace.iteration_time_series()
        )

    def _record_batch_metrics(self, result: BatchResult, iterations: int) -> None:
        """Fold a batched run's outcome into the metrics registry."""
        registry = self.metrics
        if registry is None:
            return
        registry.inc("batch/replicas", result.num_replicas)
        registry.register_histogram(
            "run/iteration_elapsed_s", _ITERATION_ELAPSED_EDGES
        )
        for replica in result.replicas:
            registry.inc("run/iterations", iterations)
            registry.inc("run/lb_calls", replica.num_lb_calls)
            registry.observe(
                "run/iteration_elapsed_s", replica.trace.iteration_time_series()
            )

    # ------------------------------------------------------------------
    def run_batch(
        self,
        seeds: Optional[Sequence[int]] = None,
        iterations: Optional[int] = None,
    ) -> BatchResult:
        """Run ``R`` seeded replicas of this config in one vectorized pass.

        Builds the replica-batched engine (:class:`repro.batch.BatchRunner`)
        from the session's declarative config: one scenario instance and one
        policy pair per seed, all executing on shared ``(R, P)`` state.
        Replica ``r`` of the result is bit-identical to
        ``Session.from_config(cfg with scenario.seed = seeds[r]).run()``.

        Parameters
        ----------
        seeds:
            Workload/gossip seed of every replica.  Defaults to
            ``scenario.seed + i`` for ``i in range(runner.replicas)``.
        iterations:
            Application iterations; defaults to ``scenario.iterations``.

        Example
        -------
        >>> from repro.api import RunConfig, Session
        >>> batch = Session.from_config(RunConfig()).run_batch(seeds=[0, 1, 2])
        ...                                                    # doctest: +SKIP
        >>> batch.aggregate()["replicas"]                      # doctest: +SKIP
        3
        """
        # Imported lazily for the same layering reason as from_config.
        import repro.scenarios  # noqa: F401  -- populates the scenario registry
        from repro.scenarios.base import ScenarioSpec
        from repro.scenarios.registry import get_scenario

        if self.config is None:
            raise SessionStateError(
                "run_batch requires a declarative session: build it with "
                "Session.from_config(RunConfig(...))"
            )
        config = self.config
        if seeds is None:
            base = config.scenario.seed if config.scenario.seed is not None else 0
            seeds = [base + i for i in range(config.runner.replicas)]
        seeds = list(seeds)
        if not seeds:
            raise ValueError("seeds must name at least one replica")
        n = iterations if iterations is not None else config.scenario.iterations
        check_positive_int(n, "iterations")

        scenario = get_scenario(config.scenario.name)
        spec = ScenarioSpec(
            num_pes=config.cluster.num_pes,
            columns_per_pe=config.scenario.columns_per_pe,
            rows=config.scenario.rows,
            iterations=config.scenario.iterations,
            seed=config.scenario.seed,
        )
        instances = [scenario.build(spec.with_seed(seed)) for seed in seeds]
        applications = [instance.application for instance in instances]
        pairs = [config.policy.resolve() for _ in seeds]
        priors = [
            config.runner.resolve_lb_cost_prior(
                self._total_flop(app),
                config.cluster.num_pes,
                config.cluster.pe_speed,
            )
            for app in applications
        ]
        runner = BatchRunner(
            config.cluster.num_pes,
            applications,
            seeds=seeds,
            pe_speed=config.cluster.pe_speed,
            cost_model=CommCostModel(
                latency=config.cluster.latency,
                bandwidth=config.cluster.bandwidth,
            ),
            workload_policies=[pair[0] for pair in pairs],
            trigger_policies=[pair[1] for pair in pairs],
            use_gossip=self.topology.use_gossip,
            gossip_config=self.topology.gossip_config(),
            wir_smoothing=self.topology.wir_smoothing,
            initial_lb_cost_estimates=priors,
            partition_flop_per_column=config.runner.partition_flop_per_column,
            bytes_per_load_unit=config.runner.bytes_per_load_unit,
            memory_budget_bytes=(
                config.runner.memory_budget_mb * 2**20
                if config.runner.memory_budget_mb is not None
                else None
            ),
            profiler=self.profiler,
            on_chunk=(
                self._on_batch_chunk if self._wants_chunk_telemetry() else None
            ),
        )
        #: Kept for callers that need the per-replica scenario instances
        #: (e.g. the campaign rows' analytical model fields).
        self.batch_instances = instances
        self.events.emit(EV_PHASE, PhaseEvent("run_batch"))
        result = runner.run(n)
        self.events.emit(EV_PHASE, PhaseEvent("done"))
        self._record_batch_metrics(result, n)
        return result

    def _wants_chunk_telemetry(self) -> bool:
        """Only attach the chunk callback when someone will consume it."""
        return (
            self.trace_writer is not None
            or self.metrics is not None
            or self.events.has_listeners(EV_BATCH_CHUNK)
        )

    def _on_batch_chunk(
        self, chunk: int, num_chunks: int, replicas: int, wall_time: float
    ) -> None:
        """Turn one completed sub-batch into trace/metrics/bus telemetry."""
        if self.trace_writer is not None:
            dur_ns = int(wall_time * 1e9)
            self.trace_writer.complete(
                f"batch_chunk[{chunk}]",
                wall_clock_ns() - dur_ns,
                dur_ns,
                cat="chunk",
                args={
                    "chunk": chunk,
                    "num_chunks": num_chunks,
                    "replicas": replicas,
                },
            )
        if self.metrics is not None:
            self.metrics.inc("batch/chunks")
            self.metrics.inc("batch/chunk_wall_s", wall_time)
        if self.events.has_listeners(EV_BATCH_CHUNK):
            self.events.emit(
                EV_BATCH_CHUNK,
                BatchChunkEvent(
                    chunk=chunk,
                    num_chunks=num_chunks,
                    replicas=replicas,
                    wall_time=wall_time,
                ),
            )

    # ------------------------------------------------------------------
    def run(self, iterations: Optional[int] = None) -> SessionResult:
        """Execute the run and return its structured result.

        ``iterations`` defaults to the config's ``scenario.iterations``;
        component-built sessions without a default must pass it explicitly.

        Example
        -------
        >>> from repro.api import RunConfig, ScenarioConfig, Session
        >>> cfg = RunConfig(scenario=ScenarioConfig(iterations=20))
        >>> result = Session.from_config(cfg).run()
        >>> result.iterations
        20
        >>> result.total_time > 0
        True
        """
        n = iterations if iterations is not None else self._default_iterations
        if n is None:
            raise SessionStateError(
                "iterations not set: pass Session.run(iterations=...) or build "
                "the session from a RunConfig (whose scenario section sets it)"
            )
        check_positive_int(n, "iterations")
        started = wall_clock()
        self.events.emit(EV_PHASE, PhaseEvent("run"))
        result = self.runner.run(n)
        wall_time = wall_clock() - started
        self.events.emit(EV_PHASE, PhaseEvent("done"))
        self._record_run_metrics(result, n)
        return SessionResult(
            run=result,
            scenario=self.scenario_name,
            iterations=n,
            wall_time=wall_time,
            config=self.config,
        )
