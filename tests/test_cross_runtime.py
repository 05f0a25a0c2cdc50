"""Cross-runtime differential tests over the shared protocol core.

The same seeded workload runs through the simulator runtime
(:class:`~repro.core.system.DSMSystem`), the client-server runtime
(:class:`~repro.clientserver.protocol.ClientServerSystem`, one client
per replica issuing that replica's writes), and the real-socket TCP
runtime (:class:`~repro.tcp.runtime.TcpCluster`, loopback, no faults).
Registers are placed pairwise (every register is shared by exactly two
replicas), so each update has exactly one recipient and the *global*
apply order of the settled-between-writes phase is
transport-independent: all runtimes must produce identical
applied-update sequences and final stores.  The concurrent phase (no
settling between writes) only pins the outcome -- final stores and a
clean checker/convergence verdict -- since there the interleaving
legitimately depends on transport timing.

Also here: the regression test that the client-server runtime reports
the shared engine's queue statistics and metrics.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.clientserver import ClientServerSystem
from repro.core.system import DSMSystem
from repro.tcp.runtime import TcpCluster

PLACEMENTS = {1: {"x", "y"}, 2: {"x", "z"}, 3: {"y", "z"}}


def _sequential_workload(seed, steps):
    """(writer, register, value) ops where the register is writable."""
    rng = random.Random(seed)
    replicas = sorted(PLACEMENTS)
    ops = []
    for step in range(steps):
        writer = rng.choice(replicas)
        ops.append((writer, rng.choice(sorted(PLACEMENTS[writer])), step))
    return ops


def _run_simulator(ops, settle_each):
    applied = []
    system = DSMSystem(PLACEMENTS, seed=3)
    for rid in PLACEMENTS:
        system.replica(rid).on_apply = (
            lambda replica, src, update: applied.append(
                (replica.replica_id, update.uid)
            )
        )
    for writer, register, value in ops:
        system.replica(writer).write(register, value)
        if settle_each:
            system.run()
    system.run()
    assert system.quiescent()
    assert system.check().ok
    stores = {rid: dict(system.replica(rid).store) for rid in PLACEMENTS}
    return applied, stores


def _run_clientserver(ops, settle_each):
    applied = []
    system = ClientServerSystem(
        PLACEMENTS, {f"c{rid}": {rid} for rid in PLACEMENTS}, seed=3
    )
    for rid in PLACEMENTS:
        system.replica(rid).on_apply = (
            lambda replica, src, update: applied.append(
                (replica.replica_id, update.uid)
            )
        )
    for writer, register, value in ops:
        system.client(f"c{writer}").enqueue_write(register, value)
        if settle_each:
            system.run()
    system.run()
    assert system.all_clients_done()
    assert system.check().ok
    stores = {rid: dict(system.replica(rid).store) for rid in PLACEMENTS}
    return applied, stores


def _run_tcp(ops, settle_each, wal_dir):
    async def scenario():
        applied = []
        async with TcpCluster(PLACEMENTS, wal_dir) as cluster:
            for rid in PLACEMENTS:
                cluster.replica(rid).on_apply = (
                    lambda replica, src, update: applied.append(
                        (replica.replica_id, update.uid)
                    )
                )
            for writer, register, value in ops:
                await cluster.replica(writer).write(register, value)
                if settle_each:
                    await cluster.settle(timeout=15)
            await cluster.settle(timeout=15)
            stores = {
                rid: dict(cluster.replica(rid).store) for rid in PLACEMENTS
            }
        return applied, stores

    return asyncio.run(scenario())


@pytest.mark.parametrize("seed", [2, 17])
def test_runtimes_agree_on_sequential_workload(seed, tmp_path):
    ops = _sequential_workload(seed, steps=24)
    sim_applied, sim_stores = _run_simulator(ops, settle_each=True)
    cs_applied, cs_stores = _run_clientserver(ops, settle_each=True)
    tcp_applied, tcp_stores = _run_tcp(ops, settle_each=True, wal_dir=str(tmp_path))
    assert sim_applied == cs_applied  # identical global apply order
    assert sim_applied == tcp_applied
    assert sim_stores == cs_stores
    assert sim_stores == tcp_stores
    assert len(sim_applied) == len(ops)  # every update applied exactly once


def test_runtimes_converge_on_concurrent_workload(tmp_path):
    # Single writer per register (the placement owner with the lowest id),
    # so last-write order per register is the issue order and the final
    # stores are transport-independent even without settling.
    ops = []
    owners = {"x": 1, "y": 1, "z": 2}
    for round_no in range(8):
        for register, owner in sorted(owners.items()):
            ops.append((owner, register, f"r{round_no}"))
    _, sim_stores = _run_simulator(ops, settle_each=False)
    _, cs_stores = _run_clientserver(ops, settle_each=False)
    _, tcp_stores = _run_tcp(ops, settle_each=False, wal_dir=str(tmp_path))
    assert sim_stores == cs_stores
    assert sim_stores == tcp_stores
    assert sim_stores[1]["x"] == "r7"


def test_clientserver_reports_engine_queue_stats():
    system = ClientServerSystem(
        {1: {"x"}, 2: {"x"}},
        {"c1": {1}, "c2": {2}},
        seed=7,
    )
    system.client("c1").enqueue_write("x", 41)
    system.client("c1").enqueue_write("x", 42)
    system.client("c2").enqueue_read("x")
    system.run()
    assert system.all_clients_done()
    assert system.check().ok
    for rid in (1, 2):
        stats = system.replica(rid).queue_stats()
        assert stats.pending_total == 0
        assert stats.senders == 0
        assert stats.dirty == 0
    assert system.replica(1).metrics.issued == 2
    assert system.replica(2).metrics.applied_remote == 2
    assert system.replica(2).metrics.pending_high_water >= 1
