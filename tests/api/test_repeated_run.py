"""The repeated-run contract of a solo session.

``Session.run`` called again on the same session continues on the same
virtual cluster: clocks, the trace, partitions, WIR state and the
degradation tracker all carry over.  The digests in
``repeated_run_fixtures.json`` pin the outputs of two consecutive
``run(10)`` calls (iteration times, LB iterations, migrated loads) for the
standard and ULBA pairs with dense gossip and with instant dissemination,
on two scenarios: one that balances in the first run and one that only
balances in the second, on the degradation carried over from the first.
The ULBA overload threshold is lowered to 1.5 because a z-score of 3 is
out of reach with 8 PEs.

Regenerate the fixture (only on a commit whose outputs are known to be
right) with::

    PYTHONPATH=src python tests/api/test_repeated_run.py > tests/api/repeated_run_fixtures.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import RunConfig, Session
from repro.api.config import ClusterConfig, PolicyConfig, ScenarioConfig, TopologyConfig

FIXTURE_PATH = Path(__file__).parent / "repeated_run_fixtures.json"

NUM_PES = 8
RUN_ITERATIONS = 10
POLICY_PARAMS = {"standard": {}, "ulba": {"alpha": 0.4, "threshold": 1.5}}
CASES = [
    (scenario, policy, gossip)
    for scenario in ("synthetic-hotspot", "multiphase")
    for policy in ("standard", "ulba")
    for gossip in ("dense", "instant")
]


def make_session(scenario: str, policy: str, gossip: str) -> Session:
    config = RunConfig(
        scenario=ScenarioConfig(name=scenario, columns_per_pe=16, rows=8, seed=3),
        cluster=ClusterConfig(num_pes=NUM_PES),
        policy=PolicyConfig(name=policy, params=POLICY_PARAMS[policy]),
        topology=TopologyConfig(use_gossip=gossip == "dense"),
    )
    return Session.from_config(config)


def run_digest(run) -> str:
    """Digest of the trace so far and of one run's LB steps."""
    h = hashlib.sha256()
    h.update(np.asarray(run.trace.iteration_time_series(), dtype=float).tobytes())
    h.update(np.asarray([r.iteration for r in run.lb_reports], dtype=np.int64).tobytes())
    h.update(np.asarray([r.migrated_load for r in run.lb_reports], dtype=float).tobytes())
    return h.hexdigest()[:16]


def case_digests(scenario: str, policy: str, gossip: str) -> dict:
    session = make_session(scenario, policy, gossip)
    digests = []
    lb_iterations = []
    for _ in range(2):
        run = session.run(RUN_ITERATIONS).run
        digests.append(run_digest(run))
        lb_iterations.append([r.iteration for r in run.lb_reports])
    return {"digests": digests, "lb_iterations": lb_iterations}


def all_digests() -> dict:
    return {"-".join(case): case_digests(*case) for case in CASES}


@pytest.fixture(scope="module")
def fixtures():
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize("case", CASES, ids="-".join)
def test_repeated_runs_match_fixture(fixtures, case):
    assert case_digests(*case) == fixtures["-".join(case)]


@pytest.mark.parametrize("case", CASES, ids="-".join)
def test_repeated_runs_extend_the_callers_trace(case):
    session = make_session(*case)
    cluster = session.cluster
    first = session.run(RUN_ITERATIONS)
    second = session.run(RUN_ITERATIONS)
    assert session.cluster is cluster
    assert cluster.trace.num_iterations == 2 * RUN_ITERATIONS
    assert first.run.trace is second.run.trace is cluster.trace
    trace = cluster.trace
    last = [trace.iterations[-1].timestamp] + [e.timestamp for e in trace.lb_events]
    assert cluster.now == max(last)


def test_fixture_cases_exercise_lb_steps(fixtures):
    """The pinned cases balance in first and in second runs."""
    first, second = zip(*(case["lb_iterations"] for case in fixtures.values()))
    assert any(first) and any(second)
    assert all(any(case["lb_iterations"]) for case in fixtures.values())


if __name__ == "__main__":
    json.dump(all_digests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
