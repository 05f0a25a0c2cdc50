"""Unit tests for fault plans, the faulty transport, and stats accounting."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    TransportError,
    UnknownDestinationError,
)
from repro.network import (
    ChannelFaults,
    FaultPlan,
    FaultyNetwork,
    FixedDelay,
    Network,
)
from repro.network.transport import NetworkStats
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
def test_channel_faults_validation():
    with pytest.raises(ConfigurationError):
        ChannelFaults(loss=1.0)  # certain loss makes liveness impossible
    with pytest.raises(ConfigurationError):
        ChannelFaults(loss=-0.1)
    with pytest.raises(ConfigurationError):
        ChannelFaults(duplication=1.5)
    assert ChannelFaults().trivial
    assert not ChannelFaults(loss=0.1).trivial


def test_fault_plan_is_deterministic():
    decisions = []
    for _ in range(2):
        plan = FaultPlan(seed=42, default=ChannelFaults(loss=0.5, duplication=0.5))
        decisions.append(
            [
                (plan.drops("a", "b", t), plan.duplicates("a", "b", t))
                for t in range(200)
            ]
        )
    assert decisions[0] == decisions[1]
    assert any(d for d, _ in decisions[0])  # faults actually fire
    assert any(d for _, d in decisions[0])


def test_fault_plan_horizon_stops_faults():
    plan = FaultPlan(
        seed=0, default=ChannelFaults(loss=0.9, duplication=0.9), horizon=50.0
    )
    assert not any(plan.drops(1, 2, t) for t in range(50, 200))
    assert not any(plan.duplicates(1, 2, t) for t in range(50, 200))
    assert any(plan.drops(1, 2, t / 10) for t in range(500))


def test_fault_plan_per_channel_override():
    plan = FaultPlan(
        seed=1,
        default=ChannelFaults(),
        per_channel={(1, 2): ChannelFaults(loss=0.99)},
    )
    assert not plan.trivial
    assert plan.faults_for(1, 2).loss == 0.99
    assert plan.faults_for(2, 1).trivial
    assert not any(plan.drops(2, 1, t) for t in range(100))
    assert any(plan.drops(1, 2, t) for t in range(100))


# ----------------------------------------------------------------------
# Faulty transport
# ----------------------------------------------------------------------
def _two_nodes(plan: FaultPlan, seed: int = 1) -> tuple:
    sim = Simulator(seed=seed)
    net = FaultyNetwork(sim, delay_model=FixedDelay(1.0), plan=plan)
    received = []
    net.register("a", lambda src, msg: received.append(msg))
    net.register("b", lambda src, msg: None)
    return sim, net, received


def test_faulty_network_drops_and_accounts():
    plan = FaultPlan(seed=5, default=ChannelFaults(loss=0.5))
    sim, net, received = _two_nodes(plan)
    for n in range(100):
        net.send("b", "a", n)
    sim.run()
    stats = net.stats
    assert stats.messages_sent == 100
    assert 0 < stats.messages_dropped < 100
    assert stats.messages_delivered == 100 - stats.messages_dropped
    assert len(received) == stats.messages_delivered
    assert stats.in_flight == 0
    stats.assert_consistent()
    cs = stats.channel("b", "a")
    assert (cs.sent, cs.delivered, cs.dropped) == (
        100, stats.messages_delivered, stats.messages_dropped
    )


def test_faulty_network_duplicates_everything():
    plan = FaultPlan(seed=5, default=ChannelFaults(duplication=1.0))
    sim, net, received = _two_nodes(plan)
    for n in range(20):
        net.send("b", "a", n)
    sim.run()
    stats = net.stats
    assert stats.messages_sent == 20
    assert stats.duplicates_injected == 20
    assert stats.messages_delivered == 40  # no dedup without the ARQ layer
    assert sorted(received) == sorted(list(range(20)) * 2)
    stats.assert_consistent()


def test_faulty_network_trivial_plan_is_plain():
    sim, net, received = _two_nodes(FaultPlan())
    for n in range(10):
        net.send("b", "a", n)
    sim.run()
    assert net.stats.messages_delivered == 10
    assert net.stats.messages_dropped == 0
    assert net.stats.duplicates_injected == 0
    assert sorted(received) == list(range(10))


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
def test_unknown_destination_error_hierarchy():
    net = Network(Simulator())
    with pytest.raises(UnknownDestinationError) as excinfo:
        net.send("a", "ghost", "msg")
    assert excinfo.value.destination == "ghost"
    # Backward compatible: also a ConfigurationError; and a TransportError.
    assert isinstance(excinfo.value, TransportError)
    assert isinstance(excinfo.value, ConfigurationError)


# ----------------------------------------------------------------------
# Stats invariants
# ----------------------------------------------------------------------
def test_stats_consistency_assertion_catches_overdelivery():
    stats = NetworkStats()
    stats.record_send(1, 2)
    stats.record_delivery(1, 2)
    stats.assert_consistent()
    stats.record_delivery(1, 2)  # delivered twice for one attempt
    with pytest.raises(ProtocolError):
        stats.assert_consistent()


def test_stats_per_channel_consistency():
    stats = NetworkStats()
    stats.record_send(1, 2)
    stats.record_send(1, 2)
    stats.record_send(2, 1)
    stats.record_delivery(1, 2)
    # Mis-attributed deliveries: the aggregate balances (3 attempts,
    # 3 deliveries) but channel (2, 1) delivered more than it attempted.
    stats.record_delivery(2, 1)
    stats.record_delivery(2, 1)
    with pytest.raises(ProtocolError):
        stats.assert_consistent()


def test_stats_per_channel_backward_compat_view():
    stats = NetworkStats()
    stats.record_send("a", "b")
    stats.record_send("a", "b")
    assert stats.per_channel == {("a", "b"): 2}
