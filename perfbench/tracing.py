"""In-memory spans and stage samples for the traced benchmark run.

Nothing here changes the program.  :class:`SpanTracer` temporarily replaces
public layer entry points (module functions and class methods) with
wrappers that time each call, keep the span in memory and credit its
duration to the enclosing span, so every span knows its self time.
:class:`StageSamples` plugs into the program's own ``StageProfiler`` through
its public ``trace`` attribute and keeps one duration per hot-loop stage
entry.  Both are read once the run ends.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

from catalog import LAYER_TIMINGS


_MISSING = object()


@dataclass(frozen=True)
class Span:
    """One timed call of a wrapped entry point."""

    name: str
    #: Name of the enclosing span ("" at top level).
    parent: str
    start_ns: int
    dur_ns: int
    #: Duration minus the part covered by child spans.
    self_ns: int


class SpanTracer:
    """Wraps entry points while active; spans are kept in :attr:`spans`.

    A call re-entering a span name already open on the stack (an override
    calling ``super()``) is not recorded again, so each span name counts
    one entry per outermost call.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[List[object]] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a timing wrapper until :meth:`close`."""
        # The raw attribute (a classmethod descriptor, say) is what close()
        # puts back; the looked-up callable is what the wrapper calls.
        raw = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            if any(frame[0] == name for frame in stack):
                return original(*args, **kwargs)
            frame: List[object] = [name, 0]
            parent = stack[-1][0] if stack else ""
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                spans.append(Span(name, parent, t0, dur, dur - frame[1]))

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def close(self) -> None:
        """Restore every wrapped entry point (reverse order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def durations(self, name: str, *, self_time: bool = False) -> List[int]:
        """Durations (ns) of every span called ``name``."""
        return [s.self_ns if self_time else s.dur_ns for s in self.spans if s.name == name]


class StageSamples:
    """Per-entry stage durations, fed by ``StageProfiler.stop``.

    Implements the one method the profiler calls on its ``trace``
    attribute; the stage totals themselves stay in the profiler.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[int]] = defaultdict(list)

    def complete(self, name: str, ts: int, dur: int, **_: object) -> None:
        self.samples[name].append(int(dur))


def timing_stats(values_ns: Sequence[int]) -> Tuple[float, float, int]:
    """``(median, tail, count)`` of durations, in seconds.

    ``tail`` is the highest sample with at least ten samples above it (the
    highest percentile that ten samples exceed).  Below 21 samples no such
    sample lies above the median, and ``tail`` is the maximum.  All zeros
    for an empty sequence.
    """
    n = len(values_ns)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values_ns)
    tail = ordered[n - 11] if n > 20 else ordered[-1]
    return statistics.median(ordered) / 1e9, tail / 1e9, n


def install_layer_spans(tracer: SpanTracer) -> None:
    """Wrap the public layer entry points the per-layer metrics attribute.

    Each concrete workload policy's ``decide`` is wrapped, since the
    abstract ``WorkloadPolicy.decide`` is never called itself.
    """
    from repro.erosion.app import ErosionApplication
    from repro.lb.base import WorkloadPolicy
    from repro.lb.centralized import CentralizedLoadBalancer
    from repro.lb.wir import OverloadDetector
    from repro.partitioning.stripe import StripePartitioner
    from repro.scenarios.base import FunctionScenario
    from repro.simcluster import gossip
    from repro.simcluster.cluster import VirtualCluster

    tracer.wrap(gossip, "select_push_targets", "gossip_select")
    tracer.wrap(gossip, "sparse_random_push_targets", "gossip_select")
    tracer.wrap(gossip.GossipBoard, "step", "gossip_step")
    tracer.wrap(gossip.SparseGossipBoard, "step", "gossip_step")
    tracer.wrap(StripePartitioner, "partition", "partition")
    tracer.wrap(VirtualCluster, "charge_lb_step", "lb_charge")
    tracer.wrap(OverloadDetector, "overloading_count", "overload_count")
    tracer.wrap(CentralizedLoadBalancer, "execute", "lb_execute")
    tracer.wrap(FunctionScenario, "build", "scenario_build")
    tracer.wrap(ErosionApplication, "from_config", "scenario_build")
    for policy in _concrete_subclasses(WorkloadPolicy):
        if "decide" in vars(policy):
            tracer.wrap(policy, "decide", "policy_decide")


def _concrete_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        found.append(sub)
        pending.extend(sub.__subclasses__())
    return found


def timing_metrics(prefix: str, values_ns: Sequence[int]) -> Dict[str, float]:
    """``<prefix>.p50`` / ``.tail`` / ``.n`` entries for one timing."""
    p50, tail, n = timing_stats(values_ns)
    return {f"{prefix}.p50": p50, f"{prefix}.tail": tail, f"{prefix}.n": n}


def layer_metrics(tracer: Optional[SpanTracer]) -> Dict[str, float]:
    """Every :data:`LAYER_TIMINGS` metric from the tracer's spans."""
    out: Dict[str, float] = {}
    for metric, (span, self_time) in LAYER_TIMINGS.items():
        values = tracer.durations(span, self_time=self_time) if tracer else []
        out.update(timing_metrics(metric, values))
    return out

