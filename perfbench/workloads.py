"""The four benchmark workloads.

Every workload is a closed loop of *sweeps*: one sweep is a fixed set of
public-API calls (``Session(...).run()``, ``Session.run_batch``,
``run_campaign``) issued one after another, each only once the previous one
returned.  A sweep reports its simulated work, the wall time spent inside
the calls, the wall time spent building what the calls run on, and one
digest per simulated run, replica or campaign cell.  The inputs of a sweep
depend only on the workload seed and the sweep's input variant.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.config import (
    ClusterConfig,
    ObsConfig,
    PolicyConfig,
    RunConfig,
    RunnerConfig,
    ScenarioConfig,
    TopologyConfig,
)
from repro.api.events import EV_CAMPAIGN_FAULT, EventBus
from repro.api.session import Session
from repro.campaign.presets import campaign_for_scale
from repro.campaign.runner import run_campaign, run_cell_batch
from repro.erosion.app import ErosionApplication, ErosionConfig
from repro.scenarios.base import ScenarioSpec
from repro.scenarios.registry import get_scenario
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.comm import CommCostModel
from repro.utils.stats import relative_gain

#: The seed whose digests are stored in ``expected.json``.
DEFAULT_SEED = 0

STANDARD = PolicyConfig("standard")
ULBA = PolicyConfig("ulba", {"alpha": 0.4})


@dataclass
class Sweep:
    """Outcome of one sweep."""

    #: Input variant the sweep ran (digests compare within a variant).
    variant: int
    #: Simulated iterations: solo iterations, replica-iterations or
    #: cell-iterations.
    work: float
    #: Host seconds inside the public-API calls.
    run_s: float
    #: Host seconds building scenarios, sessions and specs.
    setup_s: float
    #: One digest per run, replica or cell, in a fixed order.
    digests: List[str]
    lb_calls: int
    #: Runs, replicas or cells the program itself reported as failed.
    failed: int = 0
    #: Summed stage totals (ns) and loop time of the profiled calls.
    stage_ns: Dict[str, int] = field(default_factory=dict)
    loop_ns: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def add_profile(self, profile) -> None:
        if profile is None:
            return
        for stage, total in profile.totals_ns.items():
            self.stage_ns[stage] = self.stage_ns.get(stage, 0) + int(total)
        self.loop_ns += int(profile.loop_ns)


def run_digest(run) -> str:
    """Digest of one simulated run: iteration times, LB iterations, migrations."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(run.trace.iteration_time_series(), dtype=float).tobytes())
    h.update(np.asarray([r.iteration for r in run.lb_reports], dtype=np.int64).tobytes())
    h.update(np.asarray([r.migrated_load for r in run.lb_reports], dtype=float).tobytes())
    return h.hexdigest()[:16]


def row_digest(row: dict) -> str:
    """Digest of one campaign row without its host-time bookkeeping."""
    payload = {key: value for key, value in row.items() if key != "wall_time"}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _collect() -> None:
    """Collect garbage before a call, outside its timed region.

    Sessions hold reference cycles, so the previous call's boards and
    domains live until the cyclic collector happens to run.  Collecting
    before every call keeps the peak RSS a per-call figure instead of one
    that depends on collector timing and on how many calls a run fits.
    """
    gc.collect()


def _attach(session: Session, samples) -> None:
    if samples is not None and session.profiler is not None:
        session.profiler.trace = samples


class Workload:
    """Base of the workloads: shape stamp, sweeps and cross-checks."""

    name = ""
    #: Input variants a run cycles through.
    variants = 1
    #: False when the calls run in worker processes, out of reach of spans.
    in_process = True

    def shape(self, seed: int) -> Dict[str, object]:
        raise NotImplementedError

    def sweep(self, seed: int, variant: int, profile: bool, samples) -> Sweep:
        raise NotImplementedError

    def cross_check(self, seed: int, first: Sweep) -> Tuple[int, List[str]]:
        """Extra checks against another engine: (items checked, problems)."""
        return 0, []


class ErosionFig4(Workload):
    name = "erosion-fig4"
    pe_counts = (32, 64)
    strong_rocks = (1, 2, 3)
    cells = 96
    iterations = 80

    def shape(self, seed):
        return {
            "P": list(self.pe_counts),
            "R": 1,
            "cells_per_pe": f"{self.cells}x{self.cells}",
            "strong_rocks": list(self.strong_rocks),
            "gossip": "dense",
            "policies": [STANDARD.label, ULBA.label],
            "iterations": self.iterations,
            "runs_per_sweep": len(self.pe_counts) * len(self.strong_rocks) * 2,
        }

    def sweep(self, seed, variant, profile, samples):
        out = Sweep(variant, 0.0, 0.0, 0.0, [], 0)
        gains = []
        for num_pes in self.pe_counts:
            for rocks in self.strong_rocks:
                times = []
                for policy in (STANDARD, ULBA):
                    _collect()
                    t0 = perf_counter()
                    config = RunConfig(
                        cluster=ClusterConfig(num_pes=num_pes),
                        policy=policy,
                        scenario=ScenarioConfig(
                            name="erosion",
                            columns_per_pe=self.cells,
                            rows=self.cells,
                            iterations=self.iterations,
                            seed=seed,
                        ),
                        obs=ObsConfig(profile=profile),
                    )
                    app = ErosionApplication.from_config(
                        ErosionConfig(
                            num_pes=num_pes,
                            columns_per_pe=self.cells,
                            rows=self.cells,
                            num_strong_rocks=rocks,
                            seed=seed,
                        )
                    )
                    cluster = VirtualCluster(
                        num_pes,
                        pe_speed=config.cluster.pe_speed,
                        cost_model=CommCostModel(
                            latency=config.cluster.latency,
                            bandwidth=config.cluster.bandwidth,
                        ),
                    )
                    workload_policy, trigger_policy = policy.resolve()
                    session = Session(
                        cluster,
                        app,
                        workload_policy,
                        trigger_policy,
                        runner_config=config.runner,
                        topology=config.topology,
                        seed=seed,
                        config=config,
                    )
                    _attach(session, samples)
                    t1 = perf_counter()
                    result = session.run(self.iterations)
                    t2 = perf_counter()
                    out.setup_s += t1 - t0
                    out.run_s += t2 - t1
                    out.work += self.iterations
                    out.lb_calls += result.num_lb_calls
                    out.digests.append(run_digest(result.run))
                    out.add_profile(result.profile)
                    times.append(result.total_time)
                gains.append(100.0 * relative_gain(times[0], times[1]))
        out.extra["ulba_gain_pct"] = statistics.median(gains)
        return out


class LargePGossip(Workload):
    name = "large-p-gossip"
    num_pes = 1024
    iterations = 16
    boards = (("dense", None), ("sparse", 64))

    def config(self, seed: int, mode: str, view_size: Optional[int], profile: bool) -> RunConfig:
        return RunConfig(
            cluster=ClusterConfig(num_pes=self.num_pes),
            topology=TopologyConfig(gossip_mode=mode, view_size=view_size),
            policy=STANDARD,
            scenario=ScenarioConfig(
                name="synthetic-hotspot", iterations=self.iterations, seed=seed
            ),
            obs=ObsConfig(profile=profile),
        )

    def shape(self, seed):
        cfg = self.config(seed, "dense", None, False)
        return {
            "P": self.num_pes,
            "R": 1,
            "columns_per_pe": cfg.scenario.columns_per_pe,
            "gossip": ["dense", "sparse(view_size=64)"],
            "policies": [STANDARD.label],
            "iterations": self.iterations,
            "runs_per_sweep": len(self.boards),
        }

    def sweep(self, seed, variant, profile, samples):
        out = Sweep(variant, 0.0, 0.0, 0.0, [], 0)
        for mode, view_size in self.boards:
            _collect()
            t0 = perf_counter()
            session = Session.from_config(self.config(seed, mode, view_size, profile))
            _attach(session, samples)
            t1 = perf_counter()
            result = session.run()
            t2 = perf_counter()
            out.setup_s += t1 - t0
            out.run_s += t2 - t1
            out.work += result.iterations
            out.lb_calls += result.num_lb_calls
            out.digests.append(run_digest(result.run))
            out.add_profile(result.profile)
        return out


class BatchLB(Workload):
    name = "batch-lb"
    num_pes = 64
    replicas = 16
    iterations = 40
    policies = (STANDARD, ULBA)

    def seeds(self, seed: int) -> List[int]:
        return [seed * self.replicas + i for i in range(self.replicas)]

    def config(self, seed: int, policy: PolicyConfig, profile: bool) -> RunConfig:
        return RunConfig(
            cluster=ClusterConfig(num_pes=self.num_pes),
            topology=TopologyConfig(use_gossip=False),
            policy=policy,
            scenario=ScenarioConfig(
                name="synthetic-hotspot", iterations=self.iterations, seed=seed
            ),
            runner=RunnerConfig(replicas=self.replicas),
            obs=ObsConfig(profile=profile),
        )

    def shape(self, seed):
        return {
            "P": self.num_pes,
            "R": self.replicas,
            "gossip": "off (instant dissemination)",
            "policies": [p.label for p in self.policies],
            "iterations": self.iterations,
            "replica_seeds": [self.seeds(seed)[0], self.seeds(seed)[-1]],
        }

    def sweep(self, seed, variant, profile, samples):
        out = Sweep(variant, 0.0, 0.0, 0.0, [], 0)
        seeds = self.seeds(seed)
        for policy in self.policies:
            config = self.config(seeds[0], policy, profile)
            _collect()
            t0 = perf_counter()
            session = Session.from_config(config)
            # What run_batch builds before its first iteration: one scenario
            # instance per replica seed.
            scenario = get_scenario(config.scenario.name)
            spec = ScenarioSpec(
                num_pes=config.cluster.num_pes,
                columns_per_pe=config.scenario.columns_per_pe,
                rows=config.scenario.rows,
                iterations=config.scenario.iterations,
                seed=seeds[0],
            )
            for replica_seed in seeds:
                scenario.build(spec.with_seed(replica_seed))
            _attach(session, samples)
            t1 = perf_counter()
            batch = session.run_batch(seeds=seeds)
            t2 = perf_counter()
            out.setup_s += t1 - t0
            out.run_s += t2 - t1
            out.work += self.iterations * len(seeds)
            for replica in batch.replicas:
                out.lb_calls += replica.num_lb_calls
                out.digests.append(run_digest(replica))
            out.add_profile(batch.profile)
        return out

    def cross_check(self, seed, first):
        """One sampled replica of each batch against a solo Session run."""
        seeds = self.seeds(seed)
        index = seed % self.replicas
        problems = []
        for k, policy in enumerate(self.policies):
            config = self.config(seeds[index], policy, False)
            config = dataclasses.replace(config, runner=RunnerConfig(replicas=1))
            solo = Session.from_config(config).run()
            position = k * self.replicas + index
            if run_digest(solo.run) != first.digests[position]:
                problems.append(
                    f"batch replica {index} ({policy.label}, seed {seeds[index]}) "
                    "differs from its solo Session run"
                )
        return len(self.policies), problems


class Campaign(Workload):
    name = "campaign"
    scale = "default"
    jobs = 2
    variants = 6
    in_process = False

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir

    def master_seed(self, seed: int, variant: int) -> int:
        return seed * self.variants + variant

    def shape(self, seed):
        spec = campaign_for_scale(self.scale, master_seed=self.master_seed(seed, 0))
        return {
            "P": spec.num_pes,
            "R": spec.num_seeds,
            "scenarios": len(spec.scenarios),
            "cells": spec.num_cells,
            "gossip": "dense",
            "policies": [p.label for p in spec.policies],
            "iterations": spec.iterations,
            "jobs": self.jobs,
            "master_seeds": [self.master_seed(seed, v) for v in range(self.variants)],
        }

    @staticmethod
    def seed_batches(cells: Sequence) -> List[List[int]]:
        """Cell positions grouped by (scenario, policy), first-appearance order."""
        groups: Dict[tuple, List[int]] = {}
        for position, cell in enumerate(cells):
            groups.setdefault((cell.scenario, cell.policy.label), []).append(position)
        return list(groups.values())

    def sweep(self, seed, variant, profile, samples):
        out = Sweep(variant, 0.0, 0.0, 0.0, [], 0)
        _collect()
        t0 = perf_counter()
        spec = campaign_for_scale(self.scale, master_seed=self.master_seed(seed, variant))
        cells = spec.cells()
        t1 = perf_counter()
        out.setup_s = t1 - t0
        tmp = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.work_dir))
        try:
            events = EventBus()
            faults: List[object] = []
            events.on(EV_CAMPAIGN_FAULT, faults.append)
            rows_path = tmp / "rows.jsonl"
            t1 = perf_counter()
            run = run_campaign(
                spec,
                jobs=self.jobs,
                out_path=rows_path,
                events=events,
                obs=ObsConfig(profile=True) if profile else None,
                quarantine=tmp / "rows.quarantine.jsonl",
                # A seed-batch takes well under a second; the deadline only
                # keeps a hung worker from stalling the run.
                task_timeout=60.0,
                install_signal_handlers=False,
            )
            t2 = perf_counter()
            rows_bytes = rows_path.stat().st_size if rows_path.exists() else 0
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        out.run_s = t2 - t1
        by_id = {row["cell_id"]: row for row in run.rows}
        rows = [by_id.get(cell.cell_id) for cell in cells]
        out.digests = [row_digest(row) if row is not None else "missing" for row in rows]
        out.failed = sum(row is None for row in rows)
        done = [row for row in rows if row is not None]
        out.work = float(sum(row["iterations"] for row in done))
        out.lb_calls = sum(int(row["num_lb_calls"]) for row in done)
        out.add_profile(run.profile)
        worker_s = sum(float(row["wall_time"]) for row in done)
        out.extra = {
            "worker_compute_s": worker_s,
            "worker_busy_frac": worker_s / (self.jobs * out.run_s),
            "batches": len({(row["scenario"], row["policy"]) for row in done}),
            "faults": len(faults),
            "quarantined": len(run.quarantined) + run.skipped_quarantined,
            "rows_bytes": rows_bytes,
        }
        return out

    def cross_check(self, seed, first):
        """One sampled seed-batch against an in-process ``run_cell_batch``."""
        spec = campaign_for_scale(self.scale, master_seed=self.master_seed(seed, first.variant))
        cells = spec.cells()
        batches = self.seed_batches(cells)
        positions = batches[seed % len(batches)]
        rows = run_cell_batch([cells[p] for p in positions])
        problems = [
            f"campaign cell {cells[p].cell_id} differs from in-process run_cell_batch"
            for p, row in zip(positions, rows)
            if row_digest(row) != first.digests[p]
        ]
        return len(positions), problems


def make_workload(name: str, work_dir: Path) -> Workload:
    if name == Campaign.name:
        return Campaign(work_dir)
    for cls in (ErosionFig4, LargePGossip, BatchLB):
        if cls.name == name:
            return cls()
    raise KeyError(name)
