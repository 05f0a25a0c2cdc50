"""One fault vocabulary, two executors.

A timeline is plain data -- a tuple of ``FaultAction`` -- that the
virtual-time executor (``install_faults``, on a ``DSMSystem``) and the
OS-process executor (``ProcessFaults``, on a ``ProcessCluster``) both
accept; each refuses a kind it cannot perform.  The golden test pins
the simulator harness to the counters it produced before the three
harness dialects were folded into this one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
from types import SimpleNamespace

import pytest

from repro import DSMSystem
from repro.errors import ConfigurationError
from repro.harness.chaos import SCENARIOS, ChaosSpec, run_chaos_trial
from repro.harness.soak import SoakSpec, run_soak
from repro.harness.timeline import (
    FaultAction,
    ProcessFaults,
    downtime,
    install_faults,
)
from repro.network import FaultPlan
from repro.workloads import fig5_placements


def three_actions(victim, slowpoke, unit: float):
    """kill -> restart of one target, a slow window on another."""
    return (
        FaultAction(2 * unit, "kill", victim),
        FaultAction(3 * unit, "slow", slowpoke, duration=2 * unit),
        FaultAction(4 * unit, "restart", victim),
    )


# ----------------------------------------------------------------------
# (a) Executor conformance
# ----------------------------------------------------------------------
def test_simulator_executor_runs_the_three_action_timeline():
    spec = ChaosSpec(
        placements=fig5_placements(),
        crash_count=0,
        horizon=100.0,
        timeline=three_actions(2, 4, unit=10.0),
    )
    result = run_chaos_trial(spec, 0)  # checker + store_divergence inside
    assert result.ok, result.failures
    assert result.timeline == spec.timeline
    assert downtime(result.timeline) == {2: [(20.0, 40.0)]}


@pytest.mark.slow
def test_process_executor_runs_the_three_action_timeline(tmp_path):
    spec = SoakSpec(
        replicas=3,
        sessions=2,
        duration=8.0,
        seed=2,
        timeline=three_actions("r1", "r2", unit=1.0),
    )
    report = asyncio.run(run_soak(spec, str(tmp_path)))
    assert report.ok, report.violations  # merged-WAL checker + stores
    assert (report.faults, report.kills) == (3, 2)
    assert report.load.ops > 0


def fig5_system() -> DSMSystem:
    return DSMSystem(fig5_placements(), seed=0, fault_plan=FaultPlan())


@pytest.mark.parametrize(
    "action",
    [
        FaultAction(1.0, "meteor", 1),
        FaultAction(1.0, "corrupt_wal", 1),
        FaultAction(1.0, "reset", 1, detail="2"),
        FaultAction(1.0, "slow", 1),  # a window needs a duration
    ],
)
def test_simulator_executor_refuses_what_it_cannot_perform(action):
    with pytest.raises(ConfigurationError):
        install_faults(fig5_system(), (action,))


def test_simulator_executor_needs_a_fault_plan():
    with pytest.raises(ConfigurationError):
        install_faults(
            DSMSystem(fig5_placements()), three_actions(2, 4, unit=10.0)
        )


@pytest.mark.parametrize(
    "action",
    [
        FaultAction(1.0, "meteor", "r0"),
        FaultAction(1.0, "restart", "r9"),  # not a replica of the cluster
        FaultAction(1.0, "partition", "r0"),  # a window needs a duration
    ],
)
def test_process_executor_refuses_what_it_cannot_perform(action):
    cluster = SimpleNamespace(placements={"r0": ["x"], "r1": ["x"]})
    with pytest.raises(ConfigurationError):
        ProcessFaults(cluster, (action,), emit=lambda record: None)


def test_simulator_partition_isolates_a_group_from_the_rest():
    system = fig5_system()
    install_faults(
        system, (FaultAction(30.0, "partition", (1, 2), duration=190.0),)
    )
    (blackout,) = system.network.plan.blackouts
    assert (blackout.start, blackout.end) == (30.0, 220.0)
    assert blackout.channels == {
        (a, b) for a in (1, 2, 3, 4) for b in (1, 2, 3, 4)
        if (a in (1, 2)) != (b in (1, 2))
    }


def test_restart_of_a_running_target_is_a_bounce():
    assert downtime((FaultAction(5.0, "restart", "r0"),)) == {
        "r0": [(5.0, 5.0)]
    }
    system = fig5_system()
    install_faults(system, (FaultAction(5.0, "restart", 2),))
    system.run()
    assert not system.replica(2).crashed


# ----------------------------------------------------------------------
# (b) Golden equality: counters recorded before the refactor
# ----------------------------------------------------------------------
with open(
    os.path.join(os.path.dirname(__file__), "chaos_golden.json"),
    encoding="utf-8",
) as _fh:
    GOLDEN = json.load(_fh)


def _golden_spec(key: str) -> ChaosSpec:
    if key == "ci":  # the chaos-smoke CI command line
        return ChaosSpec(
            placements=fig5_placements(),
            loss=0.3,
            duplication=0.2,
            crash_count=2,
        )
    name, sync = key.split(":")
    return SCENARIOS[name](sync=sync == "sync")


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_chaos_trials_match_the_recorded_counters(key):
    spec = _golden_spec(key)
    for seed, want in sorted(GOLDEN[key].items(), key=lambda kv: int(kv[0])):
        got = run_chaos_trial(spec, int(seed))
        crashes = sorted(
            [start, target, end]
            for target, spans in downtime(got.timeline).items()
            for start, end in spans
        )
        assert crashes == want["crashes"], (key, seed)
        assert list(got.failures) == want["failures"], (key, seed)
        for counter, value in want.items():
            if counter not in ("crashes", "failures"):
                assert getattr(got, counter) == value, (key, seed, counter)


# ----------------------------------------------------------------------
# (d) A timeline is plain data
# ----------------------------------------------------------------------
def test_timeline_survives_the_report_header_round_trip():
    timeline = three_actions("r1", "r2", unit=1.5) + (
        FaultAction(30.0, "partition", (1, 2), duration=190.0),
        FaultAction(0.25, "reset", "r0", detail="r1"),
    )
    header = dataclasses.asdict(SoakSpec(timeline=timeline))
    docs = json.loads(json.dumps(header))["timeline"]
    assert tuple(FaultAction(**doc) for doc in docs) == timeline
