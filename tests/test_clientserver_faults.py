"""Client-server sessions over lossy channels: timeouts, retry, dedup,
failover, and exact history accounting via deferred access records."""

from __future__ import annotations

import pytest

from repro.clientserver import ClientServerSystem
from repro.clientserver.protocol import ReadResponse
from repro.errors import ConfigurationError, RetryExhaustedError
from repro.network.faults import ChannelFaults, FaultPlan


PLACEMENTS = {1: {"x"}, 2: {"x", "y"}, 3: {"y"}}
CLIENTS = {"c1": {1, 2}, "c2": {2, 3}}


def lossy_system(seed, loss=0.3, dup=0.2, horizon=400.0, **kwargs):
    return ClientServerSystem(
        PLACEMENTS,
        CLIENTS,
        seed=seed,
        fault_plan=FaultPlan(
            seed=seed,
            default=ChannelFaults(loss=loss, duplication=dup),
            horizon=horizon,
        ),
        timeout=6.0,
        **kwargs,
    )


def enqueue_program(system, rounds=6):
    c1, c2 = system.client("c1"), system.client("c2")
    for i in range(rounds):
        c1.enqueue_write("x", f"a{i}")
        c1.enqueue_read("x")
        c2.enqueue_write("y", f"b{i}")
        c2.enqueue_read("x")
        c2.enqueue_read("y")


@pytest.mark.parametrize("seed", range(20))
def test_sessions_complete_exactly_once_under_faults(seed):
    """Every queued operation completes despite 30% loss + 20%
    duplication, writes execute exactly once (distinct uids, one history
    issue per completed write), and the checker passes."""
    system = lossy_system(seed)
    enqueue_program(system)
    system.run()
    assert system.all_clients_done()
    result = system.check()
    assert result.ok, f"seed {seed}: {result}"
    system.network.stats.assert_consistent()
    completed_writes = [
        op
        for c in system.clients.values()
        for op in c.completed
        if op.kind == "write"
    ]
    uids = [op.uid for op in completed_writes]
    assert len(set(uids)) == len(uids)  # no double-executed write
    assert len(system.history.all_updates()) == len(uids)


def test_retries_and_failover_actually_happen():
    system = lossy_system(0)
    enqueue_program(system)
    system.run()
    retries = sum(c.retries for c in system.clients.values())
    failovers = sum(c.failovers for c in system.clients.values())
    assert retries > 0
    assert failovers > 0  # reads moved to another candidate replica
    assert system.all_clients_done()


def test_replica_dedups_retried_write():
    """A duplicated/retried write request is executed once; the replica
    resends the cached response instead."""
    system = lossy_system(1, loss=0.0, dup=1.0)  # duplicate every message
    c1 = system.client("c1")
    c1.enqueue_write("x", "only")
    system.run()
    assert system.all_clients_done()
    assert len(system.history.all_updates()) == 1
    replica_seqs = [r.core.seq for r in system.replicas.values()]
    assert sum(replica_seqs) == 1  # exactly one write executed system-wide


def test_retry_exhaustion_raises():
    system = ClientServerSystem(
        {1: {"x"}, 2: {"x"}},
        {"c": {1, 2}},
        seed=0,
        fault_plan=FaultPlan(seed=0, default=ChannelFaults(loss=0.9)),
        timeout=3.0,
        max_retries=2,
    )
    system.client("c").enqueue_write("x", 1)
    with pytest.raises(RetryExhaustedError) as excinfo:
        system.run()
    assert excinfo.value.attempts == 3  # initial send + 2 retries


def test_nontrivial_plan_requires_timeout():
    with pytest.raises(ConfigurationError):
        ClientServerSystem(
            PLACEMENTS,
            CLIENTS,
            fault_plan=FaultPlan(default=ChannelFaults(loss=0.1)),
        )


def test_client_timeout_validation():
    with pytest.raises(ConfigurationError):
        ClientServerSystem(PLACEMENTS, CLIENTS, timeout=-1.0)
    with pytest.raises(ConfigurationError):
        ClientServerSystem(PLACEMENTS, CLIENTS, timeout=1.0, max_retries=-1)
    with pytest.raises(ConfigurationError):
        ClientServerSystem(PLACEMENTS, CLIENTS, timeout=1.0, retry_backoff=0.5)


def test_stale_response_is_discarded():
    """A response whose request_id does not match the outstanding request
    is dropped silently when timeouts are enabled (a late duplicate)."""
    system = ClientServerSystem(PLACEMENTS, CLIENTS, timeout=5.0)
    client = system.client("c1")
    client.enqueue_write("x", 1)
    system.run()
    before = len(client.completed)
    # Replay a stale response out of the blue: must be ignored.
    client.on_message(1, ReadResponse("x", "stale", client.timestamp, request_id=999))
    assert len(client.completed) == before


def test_updates_still_propagate_between_replicas():
    """Replica-to-replica updates ride the ARQ layer: a write at one
    replica becomes visible to a read served by another, even under
    loss."""
    system = lossy_system(3)
    c2 = system.client("c2")
    c2.enqueue_write("y", "seen-everywhere")
    c2.enqueue_read("y")
    system.run()
    assert system.all_clients_done()
    for rid in (2, 3):  # both holders of y converge
        assert system.replica(rid).store["y"] == "seen-everywhere"
    assert system.check().ok


def test_fault_free_system_unchanged():
    """Without a fault plan the session layer is pure overhead-free
    bookkeeping: no retries, same number of history updates as writes."""
    system = ClientServerSystem(PLACEMENTS, CLIENTS, seed=5)
    enqueue_program(system, rounds=3)
    system.run()
    assert system.all_clients_done()
    assert sum(c.retries for c in system.clients.values()) == 0
    assert system.check().ok
