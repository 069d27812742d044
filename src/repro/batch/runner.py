"""The execution engine: Algorithm 1 over ``R`` seeded replicas.

Campaigns and figure drivers average every curve over seeded repetitions:
the same configuration runs ``R`` times with different seeds and only the
replica-averaged trajectories reach the plots.  :class:`BatchRunner` runs
all ``R`` replicas in a *single* vectorized pass:

* the per-PE state is one ``(R, P)``
  :class:`~repro.simcluster.pe.PEStateArrays` -- a compute phase is one
  matrix operation for every replica at once;
* the ``R`` gossip boards live in one ``(R, P, P)``
  :class:`~repro.simcluster.gossip.BatchGossipBoard` with a stacked
  per-round peer selection and a single grouped merge;
* the ``R * P`` WIR estimators update in one batched EMA
  (:class:`~repro.lb.wir.WIREstimateArray` with ``replicas=R``).

Control flow that genuinely diverges per replica -- the LB trigger decision,
the centralized LB step, partitions -- stays per-replica, running the
per-replica components against NumPy row views of the shared state; the
LB steps of the replicas that fire in the same iteration share one stacked
policy decision, partitioning, migration accounting and cost charge
(:meth:`~repro.lb.centralized.CentralizedLoadBalancer.execute_many`).
Replicas share no state, so replica ``r`` of an ``R``-replica batch is
bit-identical to a one-replica run with seed ``seeds[r]``
(``tests/batch/test_batch_equivalence.py``).  A solo run *is* a
one-replica batch: :class:`~repro.runtime.skeleton.IterativeRunner` builds
one over the caller's cluster, and the frozen loop implementation in
``tests/runtime/reference_core.py`` is the independent oracle for both
(``tests/runtime/test_golden_equivalence.py``).

**Memory model.**  The dominant state of a dense-gossip batch is the
``(R, P, P)`` board -- 16 bytes per entry, so 16 replicas at ``P = 1024``
already need 256 MiB of board alone and the batch engine would fall off a
memory cliff long before the CPU saturates.  Two escape hatches compose:

* ``gossip_config=GossipConfig(mode="sparse", ...)`` swaps the quadratic
  board for per-replica memory-bounded sparse boards
  (``O(R * P * view_size)``);
* ``memory_budget_bytes`` caps the resident board state: when the requested
  batch would exceed it, the replicas are **chunked** into sequential
  sub-batches that each fit the budget, transparently -- the returned
  :class:`~repro.batch.result.BatchResult` is indistinguishable from an
  unchunked run, and every replica stays bit-identical (replicas share no
  state, so splitting the batch cannot perturb them).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.batch.result import BatchResult, RunResult
from repro.lb.adaptive import DegradationTrigger, ULBADegradationTrigger
from repro.lb.base import LBContext, TriggerPolicy, WorkloadPolicy
from repro.lb.centralized import CentralizedLoadBalancer, LBStepReport
from repro.lb.standard import StandardPolicy
from repro.lb.wir import BatchWIRDatabase, OverloadDetector, WIREstimateArray
from repro.partitioning.stripe import StripePartition, StripePartitioner
from repro.obs.clock import wall_clock
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.comm import CommCostModel
from repro.simcluster.gossip import GossipConfig
from repro.simcluster.pe import PEStateArrays
from repro.simcluster.tracing import IterationRecord
from repro.utils.rng import SeedLike
from repro.utils.validation import check_non_negative, check_positive, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing-only (obs stays optional)
    from repro.obs.profiler import StageProfiler

__all__ = ["BatchDegradationTracker", "BatchRunner", "StripedApplication"]


@runtime_checkable
class StripedApplication(Protocol):
    """What the runner needs from an application.

    The application owns a 1-D-decomposable workload (per-column loads) and
    a dynamics step; it knows nothing about PEs, partitions or load
    balancing.
    """

    #: FLOP charged per unit of column load (converts loads to compute work).
    flop_per_load_unit: float

    @property
    def num_columns(self) -> int:
        """Number of domain columns."""
        ...

    def column_loads(self) -> np.ndarray:
        """Current workload weight of every column."""
        ...

    def advance(self) -> None:
        """Advance the application dynamics by one iteration."""
        ...


class BatchDegradationTracker:
    """``R`` degradation accumulators advanced with one vectorized update.

    The engine observes every replica's iteration time at once; all
    tracker state lives in ``(R,)`` vectors and one :meth:`observe`
    performs the window-3 median smoothing and accumulation elementwise --
    the same IEEE operations per lane as ``R`` scalar
    :class:`~repro.runtime.degradation.DegradationTracker` instances (the
    scalar ``rolling_median`` fast paths for windows of 1/2/3 are pure
    min/max/mean arithmetic), so the accumulated degradations are
    bit-identical.  Only the paper's window of 3 is supported.
    """

    def __init__(self, replicas: int) -> None:
        check_positive_int(replicas, "replicas")
        self.replicas = replicas
        self.window = 3
        self._recent = np.zeros((replicas, 3), dtype=float)
        self._count = np.zeros(replicas, dtype=np.int64)
        self._reference = np.zeros(replicas, dtype=float)
        self._has_reference = np.zeros(replicas, dtype=bool)
        self._degradation = np.zeros(replicas, dtype=float)

    # ------------------------------------------------------------------
    def degradation_of(self, replica: int) -> float:
        """Accumulated degradation of one replica (seconds)."""
        return float(self._degradation[replica])

    def iterations_since_reset(self, replica: int) -> int:
        """Iterations one replica has observed since its last reset."""
        return int(self._count[replica])

    def observe(self, iteration_times: np.ndarray) -> np.ndarray:
        """Record every replica's iteration time; returns the degradations."""
        times = np.asarray(iteration_times, dtype=float)
        if times.shape != (self.replicas,):
            raise ValueError(
                f"iteration_times must have shape ({self.replicas},), "
                f"got {times.shape}"
            )
        if (times < 0).any():
            raise ValueError("iteration_times must all be >= 0")
        # Slide the window (column 2 = newest observation).
        self._recent[:, 0] = self._recent[:, 1]
        self._recent[:, 1] = self._recent[:, 2]
        self._recent[:, 2] = times
        np.copyto(self._reference, times, where=~self._has_reference)
        self._has_reference[:] = True
        self._count += 1

        a = self._recent[:, 0]
        b = self._recent[:, 1]
        c = self._recent[:, 2]
        # rolling_median's scalar fast paths, elementwise per lane.
        median3 = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
        median2 = (b + c) / 2.0
        smoothed = np.where(
            self._count >= 3, median3, np.where(self._count == 2, median2, c)
        )
        self._degradation += smoothed - self._reference
        return self._degradation

    def reset_replica(self, replica: int) -> None:
        """Reset one replica after its LB step (next time = new reference)."""
        if not 0 <= replica < self.replicas:
            raise ValueError(f"replica {replica} outside [0, {self.replicas})")
        self._recent[replica] = 0.0
        self._count[replica] = 0
        self._reference[replica] = 0.0
        self._has_reference[replica] = False
        self._degradation[replica] = 0.0


class BatchRunner:
    """Algorithm 1 over ``R`` seeded replicas in one vectorized pass.

    Parameters
    ----------
    num_pes:
        PEs per replica (every replica runs on the same cluster size).
    applications:
        One :class:`StripedApplication` per replica (typically the same
        scenario built for ``R`` different seeds).  All replicas must expose
        the same number of columns.
    seeds:
        One gossip seed per replica; replica ``r`` consumes it exactly like
        a one-replica runner constructed with ``seeds=[seeds[r]]``.
    workload_policies / trigger_policies:
        Per-replica policy instances (policies carry state, so replicas must
        not share them); ``None`` creates
        :class:`~repro.lb.standard.StandardPolicy` and
        :class:`~repro.lb.adaptive.DegradationTrigger` instances.
    initial_lb_cost_estimates:
        Per-replica LB cost in seconds assumed before the first LB call
        provides a measurement (or one scalar for all); keeps the
        degradation trigger from firing on the very first nonzero
        degradation when set > 0.
    pe_speed, cost_model:
        Speed and interconnect of every replica's virtual cluster.
    use_gossip, gossip_config:
        Gossip (one round per iteration) or instant WIR dissemination, and
        the :class:`~repro.simcluster.gossip.GossipConfig` of the gossip
        substrate (``mode="sparse"`` bounds the board for large clusters).
    wir_smoothing, partition_flop_per_column, bytes_per_load_unit:
        WIR estimator smoothing and LB cost-model knobs.
    cluster:
        Run the single replica (``R`` must be 1) on this caller-owned
        :class:`~repro.simcluster.cluster.VirtualCluster`: the ``(1, P)``
        state is a view of its vectors, its trace records the run, and
        ``pe_speed`` / ``cost_model`` come from it.
    memory_budget_bytes:
        Upper bound on the peak gossip state of one sub-batch (resident
        board plus the per-round merge transients, which are equally
        quadratic in dense mode).  ``None`` (default) never chunks.  When the full ``R``-replica board
        would exceed the budget, :meth:`run` transparently executes the
        replicas as sequential sub-batches of ``chunk_size`` replicas each
        (at least one -- a single replica above budget still runs);
        component attributes (``state``, ``clusters``, ...) are then built
        per chunk and not exposed on this facade.
    profiler:
        Optional :class:`~repro.obs.profiler.StageProfiler` timing the
        named hot-loop stages (``compute_step`` / ``advance`` /
        ``stripe_sum`` / ``wir_update`` / ``gossip_round`` / ``lb_decide``
        / ``lb_apply``).  Chunked runs share one profiler across
        every sub-batch.  ``None`` (default) disables all probes.
    on_chunk:
        Optional callback ``(chunk, num_chunks, replicas, wall_time)``
        invoked after each completed sub-batch (once with ``(0, 1, R,
        wall)`` for an unchunked run); the session turns these into
        ``"batch_chunk"`` events.
    on_iteration / on_lb_step:
        Optional observers called as ``on_iteration(iteration, elapsed)``
        after every iteration (``elapsed``: the ``(R,)`` iteration times)
        and ``on_lb_step(replica, iteration, report)`` after every LB step.
        Unchunked runs only.

    Example
    -------
    >>> from repro.batch import BatchRunner
    >>> from repro.runtime.synthetic import SyntheticGrowthApplication
    >>> apps = [SyntheticGrowthApplication(64) for _ in range(4)]
    >>> runner = BatchRunner(8, apps, seeds=[0, 1, 2, 3])
    >>> result = runner.run(20)
    >>> result.num_replicas
    4
    """

    def __init__(
        self,
        num_pes: int,
        applications: Sequence[StripedApplication],
        *,
        seeds: Sequence[SeedLike],
        pe_speed: float = 1.0e9,
        cost_model: Optional[CommCostModel] = None,
        workload_policies: Optional[Sequence[WorkloadPolicy]] = None,
        trigger_policies: Optional[Sequence[TriggerPolicy]] = None,
        use_gossip: bool = True,
        gossip_config: Optional[GossipConfig] = None,
        wir_smoothing: float = 0.5,
        initial_lb_cost_estimates: "Sequence[float] | float" = 0.0,
        partition_flop_per_column: float = 50.0,
        bytes_per_load_unit: float = 800.0,
        memory_budget_bytes: Optional[float] = None,
        profiler: "Optional[StageProfiler]" = None,
        on_chunk: Optional[Callable[[int, int, int, float], None]] = None,
        cluster: Optional[VirtualCluster] = None,
        on_iteration: Optional[Callable[[int, np.ndarray], None]] = None,
        on_lb_step: Optional[Callable[[int, int, LBStepReport], None]] = None,
    ) -> None:
        check_positive_int(num_pes, "num_pes")
        check_positive(pe_speed, "pe_speed")
        replicas = len(applications)
        if replicas == 0:
            raise ValueError("applications must name at least one replica")
        if cluster is not None:
            if replicas != 1 or cluster.size != num_pes:
                raise ValueError(
                    "a caller-owned cluster runs exactly one replica of "
                    f"its own size ({cluster.size} PEs)"
                )
            pe_speed = cluster.pe_speed
            cost_model = cluster.comm.cost_model
        if len(seeds) != replicas:
            raise ValueError(
                f"need one seed per replica: {replicas} applications, "
                f"{len(seeds)} seeds"
            )
        num_columns = applications[0].num_columns
        for app in applications:
            if app.num_columns != num_columns:
                raise ValueError(
                    "all replica applications must have the same number of "
                    f"columns; got {app.num_columns} and {num_columns}"
                )
        if num_columns < num_pes:
            raise ValueError(
                f"the applications have {num_columns} columns, fewer than "
                f"the {num_pes} PEs"
            )
        if np.isscalar(initial_lb_cost_estimates):
            priors = [float(initial_lb_cost_estimates)] * replicas
        else:
            priors = [float(p) for p in initial_lb_cost_estimates]
            if len(priors) != replicas:
                raise ValueError(
                    f"need one LB-cost prior per replica, got {len(priors)}"
                )
        for prior in priors:
            check_non_negative(prior, "initial_lb_cost_estimate")
        if workload_policies is None:
            workload_policies = [StandardPolicy() for _ in range(replicas)]
        if trigger_policies is None:
            trigger_policies = [DegradationTrigger() for _ in range(replicas)]
        if len(workload_policies) != replicas or len(trigger_policies) != replicas:
            raise ValueError("need one workload and one trigger policy per replica")
        if len(set(map(id, workload_policies))) != replicas or len(
            set(map(id, trigger_policies))
        ) != replicas:
            raise ValueError(
                "policies carry per-run state; every replica needs its own instance"
            )

        self.num_pes = num_pes
        self.num_replicas = replicas
        self.seeds = tuple(seeds)
        self.applications = list(applications)
        self.workload_policies = list(workload_policies)
        self.trigger_policies = list(trigger_policies)
        self.initial_lb_cost_estimates = priors
        self._pe_speed = pe_speed
        self._cost_model = cost_model
        self._use_gossip = use_gossip
        self._gossip_config = gossip_config
        self._wir_smoothing = wir_smoothing
        self._partition_flop_per_column = partition_flop_per_column
        self._bytes_per_load_unit = bytes_per_load_unit
        self._num_columns = num_columns
        self._profiler = profiler
        self._on_chunk = on_chunk
        self._cluster = cluster
        self._on_iteration = on_iteration
        self._on_lb_step = on_lb_step

        if memory_budget_bytes is not None:
            check_positive(memory_budget_bytes, "memory_budget_bytes")
        self.memory_budget_bytes = memory_budget_bytes
        per_replica = self._per_replica_board_bytes(
            num_pes, use_gossip, gossip_config
        )
        if memory_budget_bytes is None:
            chunk = replicas
        else:
            chunk = min(replicas, max(1, int(memory_budget_bytes // per_replica)))
        #: Replicas executed per resident sub-batch (== ``num_replicas``
        #: when the whole batch fits the budget).
        self.chunk_size = chunk
        #: Number of sequential sub-batches :meth:`run` will execute.
        self.num_chunks = -(-replicas // chunk)
        if self.num_chunks > 1:
            if on_iteration is not None or on_lb_step is not None:
                raise ValueError("observers need an unchunked run")
            # Deferred construction: each chunk builds (and frees) its own
            # engine inside run(), so the resident board state never
            # exceeds the budget.
            return
        self._build_engine()

    # ------------------------------------------------------------------
    @staticmethod
    def _per_replica_board_bytes(
        num_pes: int, use_gossip: bool, gossip_config: Optional[GossipConfig]
    ) -> int:
        """Peak gossip-state bytes one replica adds to the batch.

        Dense gossip costs ``P * P * 32`` bytes per replica: the resident
        ``(R, P, P)`` value/version board (16 bytes per entry) **plus** as
        much again for the equally quadratic per-round transients of
        :meth:`~repro.simcluster.gossip.BatchGossipBoard.step` (the
        ``(R, P, P)`` float64 key draw of the peer selection, freed before
        the merge), so budgeting the board alone would overshoot the
        requested ceiling.  Sparse gossip is the
        resident ``P * view_size * 24`` (its merge transients are one
        replica's worth regardless of ``R``: sparse boards step
        sequentially); instant dissemination keeps only ``(R, P)`` rows.
        Buffers proportional to ``R * columns`` are excluded -- the budget
        targets the quadratic cliff.
        """
        if not use_gossip:
            return num_pes * 9
        cfg = gossip_config or GossipConfig()
        if cfg.mode == "sparse":
            return cfg.board_nbytes(num_pes)
        return 2 * cfg.board_nbytes(num_pes)

    def _build_engine(self) -> None:
        """Materialize the vectorized ``(R, P)`` engine state (one chunk)."""
        num_pes = self.num_pes
        replicas = self.num_replicas
        pe_speed = self._pe_speed
        cost_model = self._cost_model
        num_columns = self._num_columns

        #: Shared ``(R, P)`` PE state of every replica (on a caller-owned
        #: cluster, a view of its ``(P,)`` vectors).
        self.state = (
            PEStateArrays(num_pes, pe_speed, replicas=replicas)
            if self._cluster is None
            else self._cluster.state.as_batch()
        )
        #: Per-replica cluster facades over the shared state rows (each with
        #: its own trace and comm counters; LB steps charge through these).
        self.clusters: List[VirtualCluster] = (
            [
                VirtualCluster(
                    num_pes,
                    pe_speed=pe_speed,
                    cost_model=cost_model,
                    state=self.state.replica_view(r),
                )
                for r in range(replicas)
            ]
            if self._cluster is None
            else [self._cluster]
        )
        self.wir_db = BatchWIRDatabase(
            num_pes,
            self.seeds,
            use_gossip=self._use_gossip,
            gossip_config=self._gossip_config,
        )
        self.wir_estimates = WIREstimateArray(
            num_pes, smoothing=self._wir_smoothing, replicas=replicas
        )
        #: Vectorized degradation accumulation (elementwise bit-identical to
        #: R scalar trackers; see BatchDegradationTracker).
        self.degradation = BatchDegradationTracker(replicas)
        # The degradation-trigger family admits a vectorized decision path:
        # `degradation >= margin * avg_cost` is a necessary condition for
        # firing (the ULBA overhead only raises the threshold), so one
        # vectorized compare gates the per-replica Python work; any custom
        # trigger type falls back to per-replica should_balance calls with
        # full contexts.
        self._trigger_fast_mode = self._detect_trigger_fast_mode(self.trigger_policies)
        if self._trigger_fast_mode is not None:
            self._trigger_margins = np.asarray(
                [t.cost_margin for t in self.trigger_policies], dtype=float
            )
            #: Per-replica average-LB-cost cache; only changes at LB steps.
            self._avg_cost_buf = np.asarray(
                self.initial_lb_cost_estimates, dtype=float
            )
        self._last_lb_arr = np.zeros(replicas, dtype=np.int64)
        self.load_balancers: List[CentralizedLoadBalancer] = [
            CentralizedLoadBalancer(
                self.clusters[r],
                self.workload_policies[r],
                partition_flop_per_column=self._partition_flop_per_column,
                bytes_per_load_unit=self._bytes_per_load_unit,
            )
            for r in range(replicas)
        ]
        self.partitioner = StripePartitioner(num_pes)
        #: Current stripe partition of each replica (uniform until LB calls
        #: make them diverge).
        self.partitions: List[StripePartition] = [
            self.partitioner.uniform_partition(num_columns) for _ in range(replicas)
        ]
        self._stripe_starts: List[Optional[np.ndarray]] = [
            self._starts_of(p) for p in self.partitions
        ]
        #: Per-replica column loads, copied once per iteration so the
        #: per-stripe sums of every replica are one concatenated reduceat.
        self._cols_buf = np.empty((replicas, num_columns), dtype=float)
        self._concat_starts: Optional[np.ndarray] = None
        self._refresh_concat_starts()
        self._last_lb_iteration = [0] * replicas
        self._total_iterations: Optional[int] = None

    # ------------------------------------------------------------------
    @staticmethod
    def _detect_trigger_fast_mode(
        triggers: Sequence[TriggerPolicy],
    ) -> Optional[str]:
        """Classify the trigger set for the vectorized decision path.

        ``"standard"``: every trigger is exactly a
        :class:`~repro.lb.adaptive.DegradationTrigger` (threshold = margin x
        average LB cost, no WIR reads).  ``"ulba"``: every trigger is
        exactly a :class:`~repro.lb.adaptive.ULBADegradationTrigger` with
        plain identically-parameterized :class:`OverloadDetector` instances,
        so the per-replica overload counts batch into one stacked z-score
        pass.  Anything else returns ``None`` and the runner calls
        ``should_balance`` per replica with a full context -- same results,
        just slower.
        """
        if all(type(t) is ULBADegradationTrigger for t in triggers):
            detectors = [t.detector for t in triggers]
            first = detectors[0]
            if all(
                type(d) is OverloadDetector
                and d.threshold == first.threshold
                and d.min_population == first.min_population
                for d in detectors
            ):
                return "ulba"
            return None
        if all(type(t) is DegradationTrigger for t in triggers):
            return "standard"
        return None

    @staticmethod
    def _starts_of(partition: StripePartition) -> Optional[np.ndarray]:
        """reduceat start offsets of a partition, or None when degenerate.

        ``None`` flags a partition with empty stripes, which ``reduceat``
        mishandles and the prefix-sum fallback serves instead.
        """
        bounds = partition.partition.bounds
        starts = bounds[:-1]
        if (bounds[1:] > starts).all():
            return starts
        return None

    def _stripe_loads(self, replica: int, column_loads: np.ndarray) -> np.ndarray:
        """Per-stripe workload sums of one replica."""
        starts = self._stripe_starts[replica]
        if starts is not None:
            return np.add.reduceat(column_loads, starts)
        bounds = self.partitions[replica].partition.bounds
        # repro: noqa[HOT003] -- degenerate-partition fallback: reached only when a stripe is empty; the reduceat fast path above serves every non-degenerate iteration
        prefix = np.concatenate(([0.0], np.cumsum(column_loads)))
        return prefix[bounds[1:]] - prefix[bounds[:-1]]

    def _refresh_concat_starts(self, replica: Optional[int] = None) -> None:
        """Rebuild the concatenated reduceat offsets (of one ``replica``).

        One ``np.add.reduceat`` over the flattened ``(R * C,)`` column
        buffer computes every replica's stripe sums at once; segment sums
        are independent, so the result is bit-identical to ``R`` separate
        reduceats.  Degenerate partitions (empty stripes) disable the
        concatenation and fall back to the per-replica path.
        """
        changed = None if replica is None else self._stripe_starts[replica]
        if changed is not None and self._concat_starts is not None:
            offset = replica * self.num_pes
            self._concat_starts[offset : offset + self.num_pes] = (
                changed + replica * self._num_columns
            )
        elif all(starts is not None for starts in self._stripe_starts):
            columns = self._num_columns
            self._concat_starts = np.concatenate(
                [
                    self._stripe_starts[r] + r * columns
                    for r in range(self.num_replicas)
                ]
            )
        else:
            self._concat_starts = None

    def _stripe_loads_all(self) -> np.ndarray:
        """``(R, P)`` stripe sums of every replica from the column buffer."""
        if self._concat_starts is not None:
            flat = np.add.reduceat(self._cols_buf.reshape(-1), self._concat_starts)
            return flat.reshape(self.num_replicas, self.num_pes)
        # repro: noqa[HOT003] -- degenerate-partition fallback: the concatenated reduceat above serves every non-degenerate iteration
        return np.stack(
            # repro: noqa[HOT003] -- same fallback path as the stack above
            [
                self._stripe_loads(r, self._cols_buf[r])
                for r in range(self.num_replicas)
            ]
        )

    def _fill_columns(self) -> None:
        """Copy every application's current column loads into the buffer."""
        # repro: noqa[HOT001] -- O(R) calls into per-replica application objects; column_loads() is a Python-protocol method, the copy itself is one vectorized np.copyto per replica
        for r in range(self.num_replicas):
            np.copyto(self._cols_buf[r], self.applications[r].column_loads())

    def _average_lb_cost(self, replica: int) -> float:
        measured = self.load_balancers[replica].average_cost
        if measured > 0.0:
            return measured
        return self.initial_lb_cost_estimates[replica]

    def _build_context(
        self, replica: int, iteration: int, stripe_loads: np.ndarray
    ) -> LBContext:
        workloads = stripe_loads * self.applications[replica].flop_per_load_unit
        return LBContext(
            iteration=iteration,
            # repro: noqa[HOT002] -- LBContext's contract is a tuple of Python floats (solo-identical hashing); built once per LB decision, not per iteration
            pe_workloads=tuple(workloads.tolist()),
            wir_views=self.wir_db.replica(replica).views(),
            last_lb_iteration=self._last_lb_iteration[replica],
            accumulated_degradation=self.degradation.degradation_of(replica),
            average_lb_cost=self._average_lb_cost(replica),
            pe_speed=self.state.speed,
            total_iterations=self._total_iterations,
        )

    # ------------------------------------------------------------------
    def _execute_lb_steps(
        self,
        replicas: List[int],
        iteration: int,
        new_stripe_loads: np.ndarray,
        stripe_loads: np.ndarray,
        lb_reports: List[List[LBStepReport]],
        contexts: Optional[List[LBContext]] = None,
    ) -> None:
        """Run the centralized LB steps of the replicas whose trigger fired.

        The steps of one iteration execute together
        (:meth:`CentralizedLoadBalancer.execute_many` vectorizes the policy
        decisions, partitioning and charging across them); every replica's
        report and state equal those of its own one-replica run.
        """
        balancers: List[CentralizedLoadBalancer] = []
        partitions: List[StripePartition] = []
        build = contexts is None
        if build:
            contexts = []
        # repro: noqa[HOT001] -- gathers the fired replicas' LB inputs; runs only in iterations where a degradation trigger fired
        for r in replicas:
            balancers.append(self.load_balancers[r])
            partitions.append(self.partitions[r])
            if build:
                contexts.append(self._build_context(r, iteration, new_stripe_loads[r]))
        reports = CentralizedLoadBalancer.execute_many(
            balancers, contexts, self._cols_buf[replicas], partitions
        )
        # repro: noqa[HOT001] -- records the fired replicas' LB outcomes; runs only in iterations where a degradation trigger fired
        for r, context, report in zip(replicas, contexts, reports):
            lb_reports[r].append(report)
            if self._on_lb_step is not None:
                self._on_lb_step(r, iteration, report)
            self.partitions[r] = report.partition
            self._last_lb_iteration[r] = iteration + 1
            self._last_lb_arr[r] = iteration + 1
            if self._trigger_fast_mode is not None:
                self._avg_cost_buf[r] = self._average_lb_cost(r)
            self.degradation.reset_replica(r)
            self.trigger_policies[r].notify_balanced(context)
        self._refresh_stripe_starts(replicas)  # repro: noqa[FLOW-HOT] -- O(P) starts vectors rebuilt per fired replica at LB steps, not per iteration
        rebalanced = self._stripe_loads_all()[replicas]
        self.wir_estimates.reset_replica_after_migration(
            replicas, rebalanced * self._flop_per_load[replicas]
        )
        stripe_loads[replicas] = rebalanced

    def _refresh_stripe_starts(self, replicas: List[int]) -> None:
        """Recompute the reduceat offsets of repartitioned replicas."""
        for r in replicas:
            self._stripe_starts[r] = self._starts_of(self.partitions[r])
            self._refresh_concat_starts(r)

    # ------------------------------------------------------------------
    def _run_chunked(self, iterations: int) -> BatchResult:
        """Execute the replicas as sequential budget-sized sub-batches.

        Each chunk builds a fresh full :class:`BatchRunner` over its slice
        of applications / seeds / policies and frees it before the next one
        starts, so the resident board state never exceeds the budget.
        Replicas share no state across the batch, so the concatenated
        result is bit-identical to one unchunked pass (guarded by
        ``tests/batch/test_batch_chunking.py``).
        """
        check_positive_int(iterations, "iterations")
        replicas: List[RunResult] = []
        for chunk, start in enumerate(range(0, self.num_replicas, self.chunk_size)):
            stop = min(start + self.chunk_size, self.num_replicas)
            wall_start = wall_clock()
            sub = BatchRunner(
                self.num_pes,
                self.applications[start:stop],
                seeds=self.seeds[start:stop],
                pe_speed=self._pe_speed,
                cost_model=self._cost_model,
                workload_policies=self.workload_policies[start:stop],
                trigger_policies=self.trigger_policies[start:stop],
                use_gossip=self._use_gossip,
                gossip_config=self._gossip_config,
                wir_smoothing=self._wir_smoothing,
                initial_lb_cost_estimates=self.initial_lb_cost_estimates[start:stop],
                partition_flop_per_column=self._partition_flop_per_column,
                bytes_per_load_unit=self._bytes_per_load_unit,
                profiler=self._profiler,
            )
            replicas.extend(sub.run(iterations).replicas)
            if self._on_chunk is not None:
                self._on_chunk(
                    chunk,
                    self.num_chunks,
                    stop - start,
                    wall_clock() - wall_start,
                )
        prof = self._profiler
        return BatchResult(
            replicas=replicas,
            seeds=self.seeds,
            profile=prof.profile() if prof is not None else None,
        )

    def run(self, iterations: int) -> BatchResult:
        """Execute ``iterations`` application iterations on every replica."""
        if self.num_chunks > 1:
            return self._run_chunked(iterations)
        check_positive_int(iterations, "iterations")
        wall_start = wall_clock()
        self._total_iterations = iterations
        R, P = self.num_replicas, self.num_pes
        state = self.state
        comm = self.clusters[0].comm.cost_model
        sync_cost = comm.collective(P, 8.0)
        flop_per_load = np.asarray(
            [app.flop_per_load_unit for app in self.applications], dtype=float
        )[:, None]
        self._flop_per_load = flop_per_load

        lb_reports: List[List[LBStepReport]] = [[] for _ in range(R)]
        # Deferred per-iteration trace buffers (one bulk write per run
        # instead of R Python record calls per iteration).
        pe_times_buf = np.empty((iterations, R, P), dtype=float)
        elapsed_buf = np.empty((iterations, R), dtype=float)
        timestamp_buf = np.empty((iterations, R), dtype=float)

        fast_mode = self._trigger_fast_mode
        on_iteration = self._on_iteration
        self._fill_columns()
        stripe_loads = self._stripe_loads_all()
        if (stripe_loads < 0).any():
            raise ValueError("stripe loads must all be >= 0")

        # Hot-loop stage attribution (repro.obs): every probe is guarded by
        # one `prof is not None` check, so the disabled default adds no
        # calls, no allocation and no branch beyond this comparison.
        prof = self._profiler
        if prof is not None:
            prof.loop_start()

        for iteration in range(iterations):
            flop_per_pe = stripe_loads * flop_per_load

            # Line 10, batched: one bulk-synchronous compute phase of every
            # replica (the elementwise ops of R VirtualCluster.compute_step
            # calls).
            t0 = prof.start() if prof is not None else 0
            start = state.clock.max(axis=1)
            pe_times = flop_per_pe / state.speed
            state.clock += pe_times
            state.busy_time += pe_times
            end = state.clock.max(axis=1) + sync_cost
            state.clock[:] = end[:, None]
            elapsed = end - start
            pe_times_buf[iteration] = pe_times
            elapsed_buf[iteration] = elapsed
            timestamp_buf[iteration] = end
            # repro: noqa[HOT001] -- two scalar attribute bumps per replica on plain-Python comm counters; vectorizing would need an array-backed facade for bookkeeping only
            for cluster in self.clusters:
                cluster.comm.num_collectives += 1
                cluster.comm.comm_time += sync_cost
            if prof is not None:
                prof.stop("compute_step", t0)
                t0 = prof.start()

            # Application dynamics (per replica: each owns its instance).
            # repro: noqa[HOT001] -- advance() is the application protocol boundary: each replica owns an opaque Python object; dynamics cannot be batched without changing the public StripedApplication protocol
            for app in self.applications:
                app.advance()
            if prof is not None:
                prof.stop("advance", t0)
                t0 = prof.start()
            self._fill_columns()
            new_stripe_loads = self._stripe_loads_all()
            if prof is not None:
                prof.stop("stripe_sum", t0)
                t0 = prof.start()

            # WIR estimation and dissemination, batched over all replicas.
            rates = self.wir_estimates.observe(new_stripe_loads * flop_per_load)
            self.wir_db.publish_all(rates)
            if prof is not None:
                prof.stop("wir_update", t0)
                t0 = prof.start()
            self.wir_db.disseminate()
            if prof is not None:
                prof.stop("gossip_round", t0)
                t0 = prof.start()

            # Lines 11-15, batched: every replica's degradation accumulates
            # in one vectorized update.
            degradations = self.degradation.observe(elapsed)

            # Line 16: the trigger decision diverges per replica.  For the
            # degradation-trigger family, `degradation >= margin * avg
            # cost` is a necessary firing condition (the ULBA overhead of
            # Eq. 11 only raises the threshold), so one vectorized compare
            # selects the candidate replicas and only those pay the full
            # per-replica threshold (and context, if they fire); custom
            # triggers get the generic per-replica path.  The LB step
            # itself charges through the replica's cluster facade into the
            # shared (R, P) state.
            if fast_mode is not None:
                base_thresholds = self._trigger_margins * self._avg_cost_buf
                candidates = np.flatnonzero(
                    (iteration > self._last_lb_arr)
                    & (degradations >= base_thresholds)
                )
                fired = []
                # repro: noqa[HOT001] -- iterates only the trigger *candidates* (vectorized pre-filter above); empty on almost every iteration
                for r in candidates:
                    r = int(r)
                    threshold = float(base_thresholds[r])
                    if fast_mode == "ulba":
                        trigger = self.trigger_policies[r]
                        n = trigger.detector.overloading_count(
                            self.wir_db.known_values(r, 0)
                        )
                        if 0 < n < P:
                            workloads = (
                                new_stripe_loads[r]
                                * self.applications[r].flop_per_load_unit
                            )
                            threshold = threshold + (
                                trigger.alpha
                                * n
                                / (P - n)
                                # repro: noqa[HOT002] -- sequential Python-float sum is bit-identical to the solo trigger's tuple sum; np.sum's pairwise summation rounds differently
                                * sum(workloads.tolist())
                                / (state.speed * P)
                            )
                    if self.degradation.degradation_of(r) >= threshold:
                        fired.append(r)
                contexts = None
                if prof is not None:
                    prof.stop("lb_decide", t0)
            else:
                if prof is not None:
                    prof.stop("lb_decide", t0)
                fired, contexts = [], []
                # repro: noqa[HOT001] -- generic-trigger fallback: custom trigger policies are per-replica Python objects; the vectorized fast path above covers the paper's trigger family
                for r in range(R):
                    t0 = prof.start() if prof is not None else 0
                    context = self._build_context(r, iteration, new_stripe_loads[r])
                    if self.trigger_policies[r].should_balance(context):
                        fired.append(r)
                        contexts.append(context)
                    if prof is not None:
                        prof.stop("lb_decide", t0)
            np.copyto(stripe_loads, new_stripe_loads)
            if fired:
                t0 = prof.start() if prof is not None else 0
                self._execute_lb_steps(  # repro: noqa[FLOW-HOT] -- LB-step cadence: reached only in iterations where a trigger fired
                    fired, iteration, new_stripe_loads, stripe_loads, lb_reports, contexts
                )
                if prof is not None:
                    prof.stop("lb_apply", t0)

            if on_iteration is not None:
                on_iteration(iteration, elapsed)

        if prof is not None:
            prof.loop_stop()

        # Materialize the deferred iteration records (the float values
        # VirtualCluster.compute_step would have recorded live; tolist()
        # already yields Python floats, so the records are built without
        # per-element conversion).
        results: List[RunResult] = []
        for r in range(R):
            trace = self.clusters[r].trace
            elapsed_list = elapsed_buf[:, r].tolist()
            timestamp_list = timestamp_buf[:, r].tolist()
            pe_times_list = pe_times_buf[:, r, :].tolist()
            trace.iterations.extend(
                IterationRecord(
                    iteration=iteration,
                    elapsed=elapsed_list[iteration],
                    pe_compute_times=tuple(pe_times_list[iteration]),
                    timestamp=timestamp_list[iteration],
                )
                for iteration in range(iterations)
            )
            results.append(
                RunResult(
                    trace=trace,
                    lb_reports=lb_reports[r],
                    policy_name=self.workload_policies[r].name,
                    trigger_name=self.trigger_policies[r].name,
                )
            )
        if self._on_chunk is not None:
            self._on_chunk(0, 1, R, wall_clock() - wall_start)
        return BatchResult(
            replicas=results,
            seeds=self.seeds,
            profile=prof.profile() if prof is not None else None,
        )
