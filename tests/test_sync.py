"""Tests for the anti-entropy layer: frontier math, snapshot codec,
state-transfer end-to-end, the calibrated recovery scenarios, bounded
memory, and the crash-between-apply-and-ack property."""

from __future__ import annotations

import pytest

from repro import DSMSystem, ShareGraph
from repro.checker.check import frontier_closure_violations
from repro.errors import ProtocolError
from repro.harness.chaos import (
    SCENARIOS,
    ChaosSpec,
    long_partition_spec,
    run_chaos_trial,
    slow_replica_spec,
    store_divergence,
)
from repro.network import ChannelFaults, FaultPlan
from repro.sync import SyncManager, delivery_frontiers, install_set, spliced_timestamp
from repro.wire.codec import (
    canonical_edge_order,
    decode_state_snapshot,
    encode_state_snapshot,
)
from repro.workloads import fig5_placements, uniform_writes


# ----------------------------------------------------------------------
# Frontier math on a two-replica channel
# ----------------------------------------------------------------------
def test_delivery_frontier_counts_channel_prefix():
    """The frontier for a sender is the number of its channel-writes in
    the donor's causal closure -- which, by the prefix property, is the
    exact sequence number delivery must resume from."""
    system = DSMSystem({1: {"x"}, 2: {"x"}}, seed=0)
    system.replica(2).pause()
    for v in "abc":
        system.replica(1).write("x", v)
    system.run()
    history, graph = system.history, system.graph
    assert delivery_frontiers(history, graph, 1, 2) == {1: 3}
    assert len(install_set(history, graph, 1, 2)) == 3
    spliced = spliced_timestamp(
        system.replica(2).timestamp, system.replica(1).timestamp, {1: 3}, 2
    )
    assert spliced.get((1, 2)) == 3


def test_install_mask_is_causally_closed():
    """The constructed install set passes the checker's closure audit;
    a hand-made set missing a same-channel predecessor does not."""
    system = DSMSystem({1: {"x"}, 2: {"x"}}, seed=0)
    system.replica(2).pause()
    system.replica(1).write("x", "first")
    system.replica(1).write("x", "second")
    system.run()
    history, graph = system.history, system.graph
    installs = install_set(history, graph, 1, 2)
    assert frontier_closure_violations(history, graph, 2, installs) == []
    # Only the second write: its predecessor on the same channel is
    # neither installed nor applied -> causally open.
    second = list(history.updates_by(1))[-1]
    assert frontier_closure_violations(history, graph, 2, [second])


# ----------------------------------------------------------------------
# Snapshot wire codec
# ----------------------------------------------------------------------
def test_snapshot_codec_roundtrip_and_unknown_names():
    graph = ShareGraph(fig5_placements())
    system = DSMSystem(graph, seed=2, fault_plan=FaultPlan())
    manager = SyncManager(system)
    system.replica(4).pause()
    for op in uniform_writes(graph, 25, seed=3):
        system.schedule_write(op.time, op.replica, op.register, op.value)
    system.run(until=60.0)
    snap = manager.build_snapshot(1, 4)
    assert snap.installs  # replica 4 is actually behind
    order = canonical_edge_order(snap.timestamp.index)
    blob = encode_state_snapshot(
        dict(snap.store), snap.timestamp, dict(snap.frontiers), order
    )
    store, ts, frontiers = decode_state_snapshot(
        blob,
        order,
        {str(r): r for r in graph.replicas},
        {str(x): x for x in graph.registers},
    )
    assert store == dict(snap.store)
    assert ts == snap.timestamp
    assert frontiers == dict(snap.frontiers)
    with pytest.raises(ProtocolError):
        decode_state_snapshot(blob, order, {}, {})


# ----------------------------------------------------------------------
# State transfer end-to-end (manual trigger, clean channels)
# ----------------------------------------------------------------------
def test_state_transfer_installs_and_resumes_delivery():
    """A replica that shed its whole buffer converges via transfer, and
    the checker accepts the spliced history as if it had been lived."""
    graph = ShareGraph(fig5_placements())
    system = DSMSystem(graph, seed=3, fault_plan=FaultPlan())  # armed ARQ
    manager = SyncManager(system)
    lagging = system.replica(4)
    lagging.pause()
    for op in uniform_writes(graph, 40, seed=4):
        system.schedule_write(op.time, op.replica, op.register, op.value)
    system.run(until=100.0)
    assert lagging.pending_count > 0
    lagging.shed_pending()
    assert lagging.pending_count == 0
    installed = manager.reconcile()
    assert installed > 0
    assert manager.stats.transfers >= 1
    assert manager.stats.snapshot_bytes > 0
    lagging.resume()
    system.run()
    assert system.quiescent()
    result = system.check(require_liveness=True)
    assert result.ok, str(result)
    system.network.stats.assert_consistent()


# ----------------------------------------------------------------------
# Calibrated recovery scenarios: fail without sync, pass with sync
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_requires_sync(name):
    """The acceptance gate: each preset overflows its caps during the
    outage, so the ablation (caps without state transfer) fails and the
    full sync path passes -- with every memory bound holding throughout."""
    off = run_chaos_trial(SCENARIOS[name](sync=False), 0)
    assert not off.ok, f"{name} unexpectedly passed without sync: {off}"
    assert off.log_truncated > 0  # the outage really exceeded the caps

    spec = SCENARIOS[name](sync=True)
    on = run_chaos_trial(spec, 0)
    assert on.ok, f"{name} failed with sync: {on}"
    assert on.syncs > 0
    assert on.snapshot_bytes > 0
    assert on.pending_high_water <= spec.pending_cap
    assert on.unacked_high_water <= spec.unacked_cap
    assert on.log_compacted > 0 or on.log_truncated > 0


def test_classic_spec_is_untouched_and_replayable():
    """A spec without robustness fields runs the exact classic trial:
    not bounded, fully deterministic, all new counters zero."""
    spec = ChaosSpec(placements=fig5_placements(), loss=0.25, duplication=0.15)
    assert not spec.bounded
    first = run_chaos_trial(spec, 13)
    assert first == run_chaos_trial(spec, 13)
    assert first.syncs == 0
    assert first.updates_shed == 0
    assert first.log_truncated == 0
    assert first.snapshot_bytes == 0


def test_traced_trial_is_event_identical():
    """Timeline recording sits outside the simulation: a traced trial
    produces the same result as an untraced one, and the timeline shows
    the sync activity the verbose CLI replays."""
    spec = slow_replica_spec(sync=True)
    timeline = []
    traced = run_chaos_trial(spec, 3, timeline=timeline)
    assert traced == run_chaos_trial(spec, 3)
    kinds = {event.kind for event in timeline}
    assert "sync" in kinds
    assert "verdict" in kinds
    assert str(timeline[0]).startswith("t=")


def test_scenario_presets_are_bounded():
    for build in (long_partition_spec, slow_replica_spec):
        spec = build()
        assert spec.bounded
        assert spec.pending_cap is not None
        assert spec.unacked_cap is not None


# ----------------------------------------------------------------------
# Value debts: the segments that pay them must survive settlement
# ----------------------------------------------------------------------
def _debt_system():
    """Donor 1 {x,z} can cover 2's write y='V' for receiver 3 {y,z} only
    as metadata (1 does not store y): the canonical value-debt shape."""
    system = DSMSystem(
        {1: {"x", "z"}, 2: {"x", "y"}, 3: {"y", "z"}},
        seed=0,
        fault_plan=FaultPlan(),
    )
    manager = SyncManager(system)
    system.replica(3).pause()
    system.replica(2).write("y", "V")   # replica 3 misses this
    system.replica(2).write("x", "W")   # pulls y='V' into 1's closure
    system.replica(1).write("z", "Z")   # gives the 1 -> 3 transfer gain
    system.run(until=50.0)
    return system, manager


@pytest.mark.parametrize("shed_first", [False, True])
def test_value_debt_segment_survives_settlement_and_pays(shed_first):
    """Regression: the transfer used to ack (sync_commit path) or compact
    (shed/crash path) the very segment whose stale retransmission pays
    the debt, leaving replica 3 permanently diverged on y while the
    history replay still passed.  The debt segment is now protected, so
    the redelivery arrives, pays the debt, and is acked only then."""
    system, manager = _debt_system()
    r3 = system.replica(3)
    if shed_first:
        r3.shed_pending()  # volatile gone: only 2's retransmit log pays
    installed = manager._transfer(1, 3)
    assert installed == 2
    y_uid = system.history.updates_by(2)[0]
    assert r3.value_debt == {"y": y_uid}
    r3.resume()
    system.run()
    assert system.quiescent()
    assert r3.read("y") == "V"
    assert r3.value_debt == {}
    assert r3.metrics.stale_discarded >= 1
    result = system.check(require_liveness=True)
    assert result.ok, str(result)
    assert store_divergence(system, {y_uid: "V"}) == []
    system.network.stats.assert_consistent()


def test_newer_write_supersedes_value_debt():
    """A write on the debt register applied after the install settles the
    debt, so a stale redelivery can never roll the store back."""
    system, manager = _debt_system()
    r3 = system.replica(3)
    assert manager._transfer(1, 3) == 2
    assert r3.value_debt
    system.replica(2).write("y", "V2")  # above the spliced frontier
    r3.resume()
    system.run()
    assert system.quiescent()
    assert r3.read("y") == "V2"
    assert r3.value_debt == {}
    assert system.check(require_liveness=True).ok


def test_value_debt_paid_from_holder_when_log_truncated():
    """When ``unacked_cap`` truncation already dropped the debt segment
    from the sender's log *before* the transfer, no redelivery can ever
    pay it -- reconcile falls back to fetching the value from a replica
    that stores the register (here the issuer itself)."""
    system = DSMSystem(
        {1: {"x", "z", "w"}, 2: {"x", "y", "w"}, 3: {"y", "z", "w"}},
        seed=0,
        fault_plan=FaultPlan(),
        unacked_cap=1,
    )
    manager = SyncManager(system)
    r3 = system.replica(3)
    r3.pause()
    system.replica(2).write("y", "V")
    for i in range(3):
        # Later same-channel writes push y='V' out of 2's capped log.
        system.replica(2).write("w", f"w{i}")
    system.run(until=50.0)
    installed = manager.reconcile()
    assert installed > 0
    assert manager.stats.value_fetches == 1  # the fallback actually ran
    r3.resume()
    system.run()
    assert system.quiescent()
    assert r3.read("y") == "V"
    assert r3.value_debt == {}
    result = system.check(require_liveness=True)
    assert result.ok, str(result)
    system.network.stats.assert_consistent()


# ----------------------------------------------------------------------
# Store-convergence audit (the checker replays events, not values)
# ----------------------------------------------------------------------
def test_store_divergence_audit_catches_value_loss():
    system = DSMSystem({1: {"x"}, 2: {"x"}}, seed=0)
    uid = system.replica(1).write("x", "new")
    system.run()
    values = {uid: "new"}
    assert store_divergence(system, values) == []
    # A value-losing bug leaves the store stale while the history replay
    # (which never sees values) still passes -- the audit must not.
    system.replica(2).store["x"] = "stale"
    assert system.check(require_liveness=True).ok
    findings = store_divergence(system, values)
    assert findings and "diverged" in findings[0]
    # An unpaid value debt is reported even without a value map.
    system.replica(2).core.value_debt["x"] = uid
    findings = store_divergence(system)
    assert findings and "unpaid value debt" in findings[0]


# ----------------------------------------------------------------------
# Regression: duplicate sender-edge sequence degrades the seq index
# ----------------------------------------------------------------------
def test_duplicate_seq_degrades_to_scan_without_misapplying():
    """Two buffered updates with the same sender-edge sequence (possible
    on the raw network, which never dedups) must drop the sender's queue
    to the scan path -- and the scan must still apply the real updates
    in order, never the duplicate (the history would raise)."""
    system = DSMSystem({1: {"x"}, 2: {"x"}}, seed=0)  # plain network
    receiver = system.replica(2)
    receiver.pause()
    system.replica(1).write("x", "a")
    system.replica(1).write("x", "b")
    system.run()
    assert receiver.pending_count == 2
    duplicate = next(u for _, u, _ in receiver.pending if u.value == "a")
    receiver.on_message(1, duplicate)  # same seq as the buffered original
    assert receiver.core._seqmaps[1] is None  # index degraded, not corrupted
    assert receiver.pending_count == 3
    receiver.resume()
    assert receiver.read("x") == "b"
    assert receiver.metrics.applied_remote == 2
    assert receiver.pending_count == 1  # the duplicate stays buffered
    # The scan path keeps delivering this sender after degradation.
    system.replica(1).write("x", "c")
    system.run()
    assert receiver.read("x") == "c"
    assert receiver.metrics.applied_remote == 3
    assert system.check().ok


# ----------------------------------------------------------------------
# Property: crash between apply and ack never double-applies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("with_sync", [False, True])
def test_crash_between_apply_and_ack_never_double_applies(seed, with_sync):
    """Acks travel a lossy channel, so the receiver routinely applies an
    update, loses the crash race before the ack lands, and sees the
    retransmission again after recovery.  Whether the redelivery hits the
    durable suppression (no sync) or a freshly installed snapshot
    frontier (sync: reconcile runs mid-retransmission), each update is
    applied exactly once -- ``History.record_apply`` raises on the second
    apply, so mere completion proves the property."""
    plan = FaultPlan(
        seed=seed,
        per_channel={(2, 1): ChannelFaults(loss=0.7)},  # ack channel
        horizon=150.0,
    )
    system = DSMSystem({1: {"x"}, 2: {"x"}}, seed=seed, fault_plan=plan)
    manager = SyncManager(system, gap_threshold=2) if with_sync else None
    for t in range(12):
        system.schedule_write(float(t), 1, "x", t)
    system.schedule_crash(5.5, 2)
    system.schedule_recover(40.0, 2)
    if manager is not None:
        # Install a snapshot while the senders' retransmissions are still
        # in flight: the later redeliveries arrive below the spliced
        # frontier and must be discarded as stale, not re-applied.
        system.simulator.schedule_at(42.0, manager.reconcile)
    system.run(until=80.0)
    system.run()
    assert system.quiescent()
    result = system.check(require_liveness=True)
    assert result.ok, f"seed {seed}: {result}"
    assert system.replica(2).read("x") == 11
    stats = system.network.stats
    stats.assert_consistent()
    if with_sync:
        assert manager.stats.transfers >= 1
        # Redeliveries of snapshot-covered updates are neutralised by one
        # of the layers: compacted out of the sender's log, or discarded
        # as stale below the spliced frontier on arrival.
        assert (
            stats.retransmit_log_compacted > 0
            or system.replica(2).metrics.stale_discarded > 0
        )
    else:
        assert stats.duplicates_suppressed > 0
