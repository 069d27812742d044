"""One benchmark run: closed-loop sweeps, output checks and metrics.

Imported by ``run.py`` once the program's ``src`` directory is on the path.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from catalog import STAGES, units
from tracing import (
    SpanTracer,
    StageSamples,
    install_layer_spans,
    layer_metrics,
    timing_metrics,
)
from workloads import DEFAULT_SEED, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for campaign JSONL files, removed again by every sweep.
WORK_DIR = ROOT / ".bench_build" / "perfbench"


def _git_sha() -> Optional[str]:
    """Commit of the checkout, read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def interquartile_mean(values: List[float]) -> float:
    """Mean of the middle half of ``values`` (the middle value for three).

    Per-sweep rates of a run are not unimodal: on ``campaign`` the two
    workers' makespan depends on which worker draws the last seed-batch.
    The median of such a sample jumps between modes from run to run; the
    mean of its middle half does not, and still drops warm-up outliers.
    """
    ordered = sorted(values)
    cut = max(1, len(ordered) // 4) if len(ordered) >= 3 else 0
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """State of one benchmark run: sweeps, checks and failure counts."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        #: (mode, sweep) of every completed sweep.
        self.sweeps: List[tuple] = []
        self._first_digests: Dict[int, List[str]] = {}
        #: Peak RSS (MiB) once the first sweep completed.
        self.peak_rss_mb: Optional[float] = None
        self._expected = self._load_expected() if seed == DEFAULT_SEED else None

    def _load_expected(self) -> Dict[str, List[str]]:
        path = HERE / "expected.json"
        data = json.loads(path.read_text()) if path.is_file() else {}
        return data.get(self.workload.name, {})

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        print(f"FAILED ({count}): {message}", file=sys.stderr)

    # ------------------------------------------------------------------
    def check(self, sweep) -> None:
        """Count the sweep's items and compare its digests."""
        self.attempted += len(sweep.digests)
        if sweep.failed:
            self.fail(sweep.failed, f"{sweep.failed} item(s) missing or quarantined")
        first = self._first_digests.setdefault(sweep.variant, sweep.digests)
        bad = sum(a != b for a, b in zip(first, sweep.digests))
        if bad:
            self.fail(bad, f"variant {sweep.variant}: {bad} output(s) changed on repeat")
        if self._expected is not None:
            expected = self._expected.get(str(sweep.variant))
            if expected is None:
                self.fail(1, f"no stored digests for variant {sweep.variant}")
            else:
                bad = sum(a != b for a, b in zip(expected, sweep.digests))
                bad += abs(len(expected) - len(sweep.digests))
                if bad:
                    self.fail(bad, f"variant {sweep.variant}: {bad} output(s) differ "
                              "from the stored default-seed digests")

    def one_sweep(self, mode: str, variant: int, samples, tracer) -> float:
        """Run one sweep in ``mode``; returns its host seconds."""
        t0 = perf_counter()
        try:
            try:
                if tracer is not None:
                    install_layer_spans(tracer)
                sweep = self.workload.sweep(
                    self.seed, variant, mode != "off", samples if mode == "traced" else None
                )
            finally:
                if tracer is not None:
                    tracer.close()
        except Exception:  # a failing call is counted, the run goes on
            traceback.print_exc()
            self.attempted += 1
            self.fail(1, f"{mode} sweep raised")
            return perf_counter() - t0
        self.check(sweep)
        self.sweeps.append((mode, sweep))
        if self.peak_rss_mb is None:
            # After a fixed amount of work: later sweeps add heap
            # fragmentation, and how many of them fit depends on speed.
            self.peak_rss_mb = _peak_rss_mb()
        return perf_counter() - t0

    def measure(self, samples, tracer) -> None:
        """Closed loop of sweeps until the next one would overrun the budget."""
        modes = ("off", "profile", "traced") if self.trace else ("off",)
        counts = {mode: 0 for mode in modes}
        walls: List[float] = []
        start = perf_counter()
        k = 0
        while True:
            mode = modes[k % len(modes)]
            variant = counts[mode] % self.workload.variants
            counts[mode] += 1
            use_tracer = tracer if mode == "traced" and self.workload.in_process else None
            walls.append(self.one_sweep(mode, variant, samples, use_tracer))
            k += 1
            elapsed = perf_counter() - start
            if k >= len(modes) and elapsed + statistics.median(walls) > self.seconds:
                break

    def cross_check(self) -> None:
        first = next((s for mode, s in self.sweeps if mode == "off"), None)
        if first is None:
            return
        try:
            checked, problems = self.workload.cross_check(self.seed, first)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.fail(1, "cross-check raised")
            return
        self.attempted += checked
        for problem in problems:
            self.fail(1, problem)

    # ------------------------------------------------------------------
    def of(self, mode: str) -> list:
        return [s for m, s in self.sweeps if m == mode]

    def end_to_end(self) -> Dict[str, float]:
        off = self.of("off")
        if not off:
            return {name: 0.0 for name in units(False)}
        return {
            "sim_it_per_s": interquartile_mean([s.work / s.run_s for s in off]),
            "setup_s": interquartile_mean([s.setup_s for s in off]),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self, samples, tracer) -> Dict[str, float]:
        off, prof, traced = self.of("off"), self.of("profile"), self.of("traced")
        out: Dict[str, float] = {}
        stage_ns: Dict[str, int] = {}
        loop_ns = sum(s.loop_ns for s in prof)
        for sweep in prof:
            for stage, total in sweep.stage_ns.items():
                stage_ns[stage] = stage_ns.get(stage, 0) + total
        for stage in STAGES:
            out.update(timing_metrics(f"stage.{stage}_s", samples.samples.get(stage, [])))
            out[f"stage.{stage}_share"] = stage_ns.get(stage, 0) / loop_ns if loop_ns else 0.0
        covered = sum(stage_ns.get(stage, 0) for stage in STAGES)
        out["stage.uncovered_share"] = 1.0 - covered / loop_ns if loop_ns else 0.0
        out.update(layer_metrics(tracer if self.workload.in_process else None))

        def median_of(values, default=0.0):
            values = list(values)
            return statistics.median(values) if values else default

        out["lb.calls"] = median_of(s.lb_calls for s in off)
        out["lb.call_frac"] = median_of(s.lb_calls / s.work for s in off)
        for key in ("worker_compute_s", "worker_busy_frac", "batches", "faults",
                    "quarantined", "rows_bytes"):
            out[f"campaign.{key}"] = median_of(s.extra[key] for s in off if key in s.extra)
        # The k-th sweeps of the three kinds ran back to back on the same
        # inputs, so their ratios cancel the host's slow speed drift.
        out["obs.profile_overhead_frac"] = median_of(
            p.run_s / o.run_s - 1.0 for o, p in zip(off, prof)
        )
        out["trace.overhead_frac"] = median_of(
            t.run_s / o.run_s - 1.0 for o, t in zip(off, traced)
        )
        out["failed_frac"] = self.failed / self.attempted if self.attempted else 1.0
        out["paper.ulba_gain_pct"] = median_of(
            s.extra["ulba_gain_pct"] for s in off if "ulba_gain_pct" in s.extra
        )
        return out

    def stamp(self) -> Dict[str, object]:
        import numpy

        off = self.of("off")
        lb_frac = statistics.median(s.lb_calls / s.work for s in off) if off else None
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "shape": self.workload.shape(self.seed),
            "sweeps": {mode: len(self.of(mode)) for mode in ("off", "profile", "traced")},
            "lb.call_frac": lb_frac,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "git_sha": _git_sha(),
        }


def _print_table(metrics: Dict[str, float], unit_of: Dict[str, str]) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit_of[name]}")


def execute(workload: str, seed: int, seconds: float, trace: bool, out: Optional[Path]) -> None:
    """Run ``workload`` and print its metrics; the result is the last line."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    run = Run(make_workload(workload, WORK_DIR), seed, seconds, trace)
    samples, tracer = StageSamples(), SpanTracer()
    run.measure(samples, tracer)
    run.cross_check()

    metrics = run.per_layer(samples, tracer) if trace else run.end_to_end()
    unit_of = units(trace)
    if set(metrics) != set(unit_of):
        raise RuntimeError(f"metric names drifted from catalog.py: {set(metrics) ^ set(unit_of)}")
    metrics = {name: metrics[name] for name in unit_of}
    stamp = run.stamp()
    _print_table(metrics, unit_of)
    print(json.dumps({"stamp": stamp}))
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit_of[name]} for name, value in metrics.items()
        },
    }
    if out is not None:
        with out.open("a") as fh:
            fh.write(json.dumps({**stamp, **result}) + "\n")
    print(json.dumps(result))
