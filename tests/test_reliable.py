"""Tests for the reliable-delivery layer: exactly-once over faulty channels,
crash/recovery, zero overhead when bypassed, and the chaos campaign."""

from __future__ import annotations

import pytest

from repro import DSMSystem, ShareGraph
from repro.errors import ConfigurationError, ProtocolError, RetryExhaustedError
from repro.harness.chaos import (
    ChaosSpec,
    run_chaos_campaign,
    run_chaos_trial,
)
from repro.harness.timeline import FaultAction, derive_crashes, downtime
from repro.network import ChannelFaults, FaultPlan, ReliableNetwork
from repro.network.delays import FixedDelay, UniformDelay
from repro.sim import Simulator
from repro.workloads import (
    fig5_placements,
    ring_placements,
    run_workload,
    uniform_writes,
)


LOSSY = lambda seed: FaultPlan(  # noqa: E731 - test shorthand
    seed=seed, default=ChannelFaults(loss=0.3, duplication=0.2), horizon=500.0
)


# ----------------------------------------------------------------------
# Exactly-once delivery (property over many seeds)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(25))
def test_exactly_once_under_loss_and_duplication(seed):
    """Under 30% loss + 20% duplication the DSM still satisfies causal
    consistency with liveness: every update applied exactly once at every
    replica storing its register (the history guards double-applies)."""
    graph = ShareGraph(fig5_placements())
    system = DSMSystem(graph, seed=seed, fault_plan=LOSSY(seed))
    run_workload(system, uniform_writes(graph, 25, seed=seed + 1))
    assert system.quiescent()
    result = system.check(require_liveness=True)
    assert result.ok, f"seed {seed}: {result}"
    stats = system.network.stats
    stats.assert_consistent()
    # The faults actually bit and the ARQ layer actually worked.
    assert stats.messages_dropped > 0
    assert stats.duplicates_suppressed > 0
    assert stats.retransmits > 0


def test_reliable_layer_suppresses_injected_duplicates():
    sim = Simulator(seed=2)
    plan = FaultPlan(seed=2, default=ChannelFaults(duplication=1.0))
    net = ReliableNetwork(sim, delay_model=FixedDelay(1.0), plan=plan,
                          ack_policy="on_receipt")
    received = []
    net.register("a", lambda src, msg: received.append(msg))
    net.register("b", lambda src, msg: None)
    for n in range(20):
        net.send("b", "a", n)
    sim.run()
    assert sorted(received) == list(range(20))  # each exactly once
    assert net.stats.duplicates_injected == 20
    assert net.stats.duplicates_suppressed >= 20
    assert net.idle
    net.stats.assert_consistent()


# ----------------------------------------------------------------------
# Memory ceilings under seeded faults
# ----------------------------------------------------------------------
def test_arq_memory_stays_under_seeded_ceilings():
    """1,200 writes at rate 50 on a ring of 12 over 5% loss and 4%
    duplication.  Every fault decision is seeded, so the deepest pending
    buffer and retransmit log are exact per run (25 and 23 when
    recorded); the ceilings are ``max(2 * ref, ref + 8)`` of those.  At
    this size they sit above what a leak reaches by the end of the run,
    so quiescence -- every log and buffer empty -- is asserted too."""
    plan = FaultPlan(seed=7, default=ChannelFaults(loss=0.05, duplication=0.04))
    system = DSMSystem(ring_placements(12), seed=7, fault_plan=plan)
    run_workload(system, uniform_writes(system.graph, 1200, rate=50.0, seed=13))
    assert system.check().ok
    assert system.quiescent()
    metrics = system.metrics()
    assert metrics.pending_high_water <= 50
    assert metrics.unacked_high_water <= 46


# ----------------------------------------------------------------------
# Zero overhead when bypassed
# ----------------------------------------------------------------------
def test_trivial_plan_bypasses_arq_entirely():
    """With a trivial plan (and no always_on) the reliable layer adds
    nothing: same message counts as the plain transport, no acks."""
    sim = Simulator(seed=3)
    net = ReliableNetwork(sim, delay_model=FixedDelay(1.0), plan=FaultPlan())
    assert not net.armed
    received = []
    net.register("a", lambda src, msg: received.append(msg))
    net.register("b", lambda src, msg: None)
    for n in range(15):
        net.send("b", "a", n, metadata_counters=3)
    sim.run()
    stats = net.stats
    assert stats.messages_sent == stats.messages_delivered == 15
    assert stats.acks_sent == 0
    assert stats.retransmits == 0
    assert stats.metadata_counters_sent == 45
    assert sorted(received) == list(range(15))


def test_armed_but_faultless_run_keeps_logical_accounting():
    """Acks and envelopes never leak into the logical message counters:
    an armed ARQ run over clean channels reports the same messages_sent
    and metadata accounting as the plain network."""
    graph = ShareGraph(fig5_placements())
    stream = uniform_writes(graph, 30, seed=9)
    plain = DSMSystem(graph, seed=8)
    run_workload(plain, stream)
    armed = DSMSystem(graph, seed=8, fault_plan=FaultPlan())  # always-on ARQ
    run_workload(armed, stream)
    assert armed.network.armed
    p, a = plain.metrics(), armed.metrics()
    assert a.messages_sent == p.messages_sent
    assert a.messages_delivered == p.messages_delivered
    assert a.metadata_counters_sent == p.metadata_counters_sent
    assert a.metadata_bytes_sent == p.metadata_bytes_sent
    assert armed.network.stats.retransmits == 0  # rto exceeds the RTT
    assert armed.check().ok


# ----------------------------------------------------------------------
# Configuration and retry exhaustion
# ----------------------------------------------------------------------
def test_reliable_network_validation():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        ReliableNetwork(sim, ack_policy="never")
    with pytest.raises(ConfigurationError):
        ReliableNetwork(sim, rto=0.0)
    with pytest.raises(ConfigurationError):
        ReliableNetwork(sim, rto=8.0, max_rto=4.0)


def test_retry_exhaustion_raises():
    sim = Simulator(seed=0)
    plan = FaultPlan(seed=0, default=ChannelFaults(loss=0.95))
    net = ReliableNetwork(
        sim, delay_model=FixedDelay(1.0), plan=plan,
        ack_policy="on_receipt", rto=2.0, max_attempts=3,
    )
    net.register("a", lambda src, msg: None)
    net.register("b", lambda src, msg: None)
    for n in range(20):
        net.send("b", "a", n)
    with pytest.raises(RetryExhaustedError) as excinfo:
        sim.run()
    assert excinfo.value.attempts == 3


# ----------------------------------------------------------------------
# Crash / recovery
# ----------------------------------------------------------------------
def test_crash_requires_reliable_layer():
    system = DSMSystem({1: {"x"}, 2: {"x"}}, seed=0)  # plain network
    with pytest.raises(ProtocolError):
        system.crash(1)


def test_crashed_replica_rejects_operations():
    system = DSMSystem({1: {"x"}, 2: {"x"}}, seed=0, fault_plan=FaultPlan())
    system.crash(1)
    with pytest.raises(ProtocolError):
        system.replica(1).read("x")
    with pytest.raises(ProtocolError):
        system.replica(1).write("x", 1)
    with pytest.raises(ProtocolError):
        system.crash(1)  # already down
    system.recover(1)
    system.replica(1).write("x", 1)
    system.run()
    assert system.replica(2).read("x") == 1


def test_crash_during_pending_apply_regression():
    """A replica crashing with a buffered (delivered-but-unapplied) update
    must not lose it: the channel state rolls back and the sender
    retransmits after recovery.

    Seed 0 makes the second write overtake the first on the wire, so at
    t=2.5 replica 2 holds exactly one pending update (asserted, so a seed
    drift fails loudly rather than silently testing nothing).
    """
    system = DSMSystem(
        {1: {"x"}, 2: {"x"}}, seed=0,
        delay_model=UniformDelay(0.5, 5.0), fault_plan=FaultPlan(),
    )
    system.schedule_write(0.0, 1, "x", "a")
    system.schedule_write(0.01, 1, "x", "b")
    system.run(until=2.5)
    assert system.replica(2).pending_count == 1  # precondition
    system.crash(2)
    assert system.replica(2).pending_count == 0  # volatile state discarded
    assert system.replica(2).crashed
    system.run(until=10.0)
    system.recover(2)
    system.run()
    assert system.replica(2).read("x") == "b"
    assert system.quiescent()
    assert system.check().ok
    assert system.network.stats.retransmits > 0
    system.network.stats.assert_consistent()


@pytest.mark.parametrize("seed", range(10))
def test_crash_recovery_under_faults(seed):
    """Crash + loss + duplication together: safety throughout, liveness
    once the horizon passed and the replica recovered."""
    graph = ShareGraph(fig5_placements())
    plan = FaultPlan(
        seed=seed, default=ChannelFaults(loss=0.2, duplication=0.1),
        horizon=200.0,
    )
    system = DSMSystem(graph, seed=seed, fault_plan=plan)
    for k, op in enumerate(uniform_writes(graph, 20, seed=seed + 1)):
        if op.replica == 2 and 30.0 <= op.time < 80.0:
            continue  # replica 2 is down then
        system.schedule_write(op.time, op.replica, op.register, op.value)
    system.schedule_crash(30.0, 2)
    system.schedule_recover(80.0, 2)
    system.run(until=60.0)
    assert system.check(require_liveness=False).ok  # safety mid-crash
    system.run()
    assert system.quiescent()
    assert system.check(require_liveness=True).ok
    system.network.stats.assert_consistent()


# ----------------------------------------------------------------------
# Chaos campaign
# ----------------------------------------------------------------------
def test_chaos_spec_validation():
    with pytest.raises(ConfigurationError):  # restart not after its kill
        downtime((FaultAction(5.0, "kill", 1), FaultAction(5.0, "restart", 1)))
    with pytest.raises(ConfigurationError):  # killed while already down
        downtime((FaultAction(5.0, "kill", 1), FaultAction(6.0, "kill", 1)))
    with pytest.raises(ConfigurationError):
        ChaosSpec(placements=fig5_placements(), horizon=0.0)


def test_derive_crashes_is_deterministic_and_disjoint():
    graph = ShareGraph(fig5_placements())
    a = derive_crashes(graph.replicas, 4, 300.0, seed=11)
    b = derive_crashes(graph.replicas, 4, 300.0, seed=11)
    assert a == b
    assert [x.kind for x in a].count("kill") == 4
    assert [x.kind for x in a].count("restart") == 4
    assert [x.time for x in a] == sorted(x.time for x in a)
    # downtime() pairs every kill with its restart and raises on overlap.
    windows = downtime(a)
    assert sum(len(w) for w in windows.values()) == 4
    for spans in windows.values():
        for i, (start, end) in enumerate(spans):
            assert start < end <= 0.9 * 300.0
            for other_start, other_end in spans[i + 1:]:
                assert end <= other_start or other_end <= start


def test_chaos_campaign_acceptance():
    """The ISSUE acceptance gate: loss 0.3, duplication 0.2, two
    crash/recover events per trial, >= 20 seeds, safety at every
    checkpoint and liveness after the last fault."""
    spec = ChaosSpec(
        placements=fig5_placements(), loss=0.3, duplication=0.2,
        writes=20, crash_count=2,
    )
    report = run_chaos_campaign(spec, seeds=range(20))
    assert report.ok, report.summary()
    assert len(report.trials) == 20
    for trial in report.trials:
        assert len(trial.crashes) == 2
        assert trial.checkpoints_checked == spec.checkpoints
        assert trial.messages_dropped > 0  # chaos actually happened
    assert "all 20 trials passed" in report.summary()


def test_chaos_trial_is_replayable():
    spec = ChaosSpec(placements=fig5_placements(), loss=0.25, duplication=0.15)
    assert run_chaos_trial(spec, 13) == run_chaos_trial(spec, 13)
