"""Conformance of every registered timestamp policy to the policy layer.

Parametrizes over :func:`tests.policy_registry.registered_policies`
so a policy added to the registry is automatically held to the extended
surface documented on :class:`repro.core.timestamp.TimestampPolicy`:
identification, delta hooks consistent with their plain counterparts,
seq-indexed delivery when ``exact_sender_fifo`` is claimed, a
``blocking_edge`` that makes single-counter wake-ups complete, the
stabilization hooks when ``stabilizing`` is claimed, and (for safe
policies) a clean end-to-end run through the real engine + checker.
"""

import random

import pytest

from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem
from repro.workloads import (
    clique_placements,
    random_placements,
    ring_placements,
    run_workload,
    uniform_writes,
)
from tests.policy_registry import policy_entry, registered_policies

ENTRIES = registered_policies()
TAGS = [e.tag for e in ENTRIES]


def _graph_for(entry) -> ShareGraph:
    if entry.requires_full_replication:
        return ShareGraph(clique_placements(4))
    return ShareGraph(ring_placements(6))


def _build(entry):
    graph = _graph_for(entry)
    rid = sorted(graph.replicas, key=str)[0]
    return graph, rid, entry.factory(graph, rid)


@pytest.mark.parametrize("tag", TAGS)
def test_registry_is_consistent(tag):
    entry = policy_entry(tag)
    _, _, policy = _build(entry)
    assert policy.policy_tag == tag
    assert isinstance(policy.stabilizing, bool)
    assert policy.stabilizing == entry.stabilizing
    assert isinstance(policy.exact_sender_fifo, bool)


@pytest.mark.parametrize("tag", TAGS)
def test_required_surface(tag):
    entry = policy_entry(tag)
    graph, rid, policy = _build(entry)
    ts0 = policy.initial()
    # Pick a register actually shared with a neighbour: advancing on a
    # private register legitimately moves no channel counters.
    peer = sorted(graph.neighbors(rid), key=str)[0]
    register = sorted(graph.shared(rid, peer), key=str)[0]
    ts1 = policy.advance(ts0, register)
    assert ts1 != ts0, "advance must move the timestamp"
    assert isinstance(policy.counters(), int) and policy.counters() >= 0
    # A fresh peer must accept the first update from this replica and
    # fold it in via merge.
    peer_policy = entry.factory(graph, peer)
    wire = ts1
    if policy.stabilizing:
        wire = policy.update_timestamp(ts1, peer)
    assert peer_policy.ready(peer_policy.initial(), rid, wire)
    merged = peer_policy.merge(peer_policy.initial(), rid, wire)
    assert merged != peer_policy.initial()


@pytest.mark.parametrize("tag", TAGS)
def test_delta_hooks_match_plain_counterparts(tag):
    entry = policy_entry(tag)
    graph, rid, policy = _build(entry)
    peer = sorted(graph.neighbors(rid), key=str)[0]
    register = sorted(graph.shared(rid, peer), key=str)[0]
    ts0 = policy.initial()
    if hasattr(policy, "advance_delta"):
        via_delta, keys = policy.advance_delta(ts0, register)
        assert via_delta == policy.advance(ts0, register)
        if keys is not None:
            assert set(keys) <= set(via_delta.index)
    sender = entry.factory(graph, peer)
    sender_ts = sender.advance(sender.initial(), register)
    if sender.stabilizing:
        sender_ts = sender.update_timestamp(sender_ts, rid)
    if hasattr(policy, "merge_delta"):
        via_delta, keys = policy.merge_delta(ts0, peer, sender_ts)
        assert via_delta == policy.merge(ts0, peer, sender_ts)
        if keys is not None:
            assert set(keys) <= set(via_delta.index)


@pytest.mark.parametrize("tag", TAGS)
def test_seq_indexed_delivery_contract(tag):
    """``exact_sender_fifo`` policies must expose the counters the engine
    indexes sender queues by, numbered 1, 2, ... per channel."""
    entry = policy_entry(tag)
    graph, rid, policy = _build(entry)
    if not policy.exact_sender_fifo:
        pytest.skip("policy does not claim exact sender FIFO")
    peer = next(k for k in graph.neighbors(rid))
    sender = entry.factory(graph, peer)
    register = sorted(
        set(graph.registers_at(peer)) & set(graph.registers_at(rid)), key=str
    )[0]
    ts = sender.initial()
    for expected in (1, 2, 3):
        ts = sender.advance(ts, register)
        wire = ts
        if sender.stabilizing:
            wire = sender.update_timestamp(ts, rid)
        assert policy.sender_seq(peer, wire) == expected
    # The receiver's next expected seq starts at 1 and follows merges.
    mine = policy.initial()
    assert policy.next_seq(mine, peer) == 1


@pytest.mark.parametrize("tag", TAGS)
def test_blocking_edge_makes_single_counter_wakeups_complete(tag):
    """On random timestamp pairs where ``J`` is false, ``blocking_edge``
    names a counter of the local timestamp, and raising *only other*
    counters never makes ``J`` true -- so the engine may sleep until
    that one counter changes."""
    entry = policy_entry(tag)
    graph, rid, policy = _build(entry)
    if not hasattr(policy, "blocking_edge"):
        pytest.skip("no hook: the engine wakes on any change")
    rng = random.Random(tag)
    blocked = 0
    for _ in range(400):
        peer = rng.choice(graph.neighbors(rid))
        sender = entry.factory(graph, peer)
        ts = policy.initial()
        ts = ts.replace({e: rng.randint(0, 3) for e in ts.index})
        sender_ts = sender.initial()
        sender_ts = sender_ts.replace(
            {e: rng.randint(0, 3) for e in sender_ts.index}
        )
        if sender.stabilizing:
            sender_ts = sender.update_timestamp(sender_ts, rid)
        if policy.ready(ts, peer, sender_ts):
            continue  # the hook is only defined while J is false
        blocked += 1
        edge = policy.blocking_edge(ts, peer, sender_ts)
        assert edge in ts.index
        if tag == "no-third-party":
            assert edge == (peer, rid), "only the sequence conjunct exists"
        raised = ts.replace(
            {e: ts[e] + rng.randint(0, 3) for e in ts.index if e != edge}
        )
        assert not policy.ready(raised, peer, sender_ts)
    assert blocked > 50


@pytest.mark.parametrize("tag", TAGS)
def test_only_a_senders_own_merge_moves_its_expected_sequence(tag):
    """The engine files nothing for a sender waiting on a sequence number
    that has not arrived: it relies on merging a *ready* update from one
    sender leaving every other sender's ``next_seq`` alone.  A policy
    that cannot promise that (no third-party gate) must report an
    unknown delta, which re-examines every queue."""
    entry = policy_entry(tag)
    graph, rid, policy = _build(entry)
    if not policy.exact_sender_fifo or not hasattr(policy, "blocking_edge"):
        pytest.skip("no seq-indexed queues, or woken on any change anyway")
    rng = random.Random(tag)
    merged = moved = 0
    for _ in range(2000):
        peer = rng.choice(graph.neighbors(rid))
        sender = entry.factory(graph, peer)
        ts = policy.initial()
        ts = ts.replace({e: rng.randint(0, 2) for e in ts.index})
        sender_ts = sender.initial()
        sender_ts = sender_ts.replace(
            {e: rng.randint(0, 2) for e in sender_ts.index}
        )
        if sender.stabilizing:
            sender_ts = sender.update_timestamp(sender_ts, rid)
        if not policy.ready(ts, peer, sender_ts):
            continue
        merged += 1
        if hasattr(policy, "merge_delta"):
            after, changed = policy.merge_delta(ts, peer, sender_ts)
        else:  # the engine diffs the two timestamps: always known
            after, changed = policy.merge(ts, peer, sender_ts), frozenset()
        others = [k for k in graph.neighbors(rid) if k != peer]
        if any(policy.next_seq(after, k) != policy.next_seq(ts, k) for k in others):
            moved += 1
            assert changed is None
    assert merged > 20
    assert (moved > 0) == (tag == "no-third-party")


@pytest.mark.parametrize("tag", TAGS)
def test_engine_consults_blocking_edge_only_when_not_ready(tag):
    entry = policy_entry(tag)
    calls = []

    def factory(graph, rid):
        policy = entry.factory(graph, rid)
        hook = getattr(policy, "blocking_edge", None)
        if hook is not None:

            def checked(ts, sender, sender_ts):
                assert not policy.ready(ts, sender, sender_ts)
                calls.append(sender)
                return hook(ts, sender, sender_ts)

            policy.blocking_edge = checked
        return policy

    placements = (
        clique_placements(4)
        if entry.requires_full_replication
        else random_placements(8, 12, 4, seed=3)
    )
    system = DSMSystem(placements, seed=11, policy_factory=factory)
    run_workload(system, uniform_writes(system.graph, 200, rate=50.0, seed=5))
    # Policies whose J is the sequence conjunct alone never get asked by
    # the engine (a sender waiting for a sequence number is not filed).
    if tag in ("edge", "lax-sender-edge"):
        assert calls, "workload never blocked: nothing was checked"


@pytest.mark.parametrize("tag", TAGS)
def test_stabilization_hooks(tag):
    entry = policy_entry(tag)
    graph, rid, policy = _build(entry)
    if not policy.stabilizing:
        for hook in ("own_clock", "merge_clock", "stabilization_clock"):
            assert not hasattr(policy, hook) or tag == "gst"
        return
    peer = next(k for k in graph.neighbors(rid))
    register = sorted(graph.registers_at(rid), key=str)[0]
    ts0 = policy.initial()
    assert policy.own_clock(ts0) == 0
    ts1 = policy.advance(ts0, register)
    clock = policy.own_clock(ts1)
    assert clock > 0
    wire = policy.update_timestamp(ts1, peer)
    assert policy.stabilization_clock(rid, wire) == clock
    # merge_clock is a max fold: merging a smaller clock is a no-op,
    # merging a larger one raises the local clock to it.
    assert policy.own_clock(policy.merge_clock(ts1, 0)) == clock
    assert policy.own_clock(policy.merge_clock(ts1, clock + 7)) == clock + 7
    assert policy.sent_count(ts1, peer) >= 0


@pytest.mark.parametrize("tag", TAGS)
def test_safe_policies_run_clean_end_to_end(tag):
    entry = policy_entry(tag)
    if not entry.safe:
        pytest.skip("ablation policy: unsafe by design")
    placements = (
        clique_placements(4)
        if entry.requires_full_replication
        else ring_placements(6)
    )
    system = DSMSystem(placements, seed=11, policy_factory=entry.factory)
    stream = uniform_writes(system.graph, 80, rate=8.0, seed=5)
    run_workload(system, stream)
    if system.stabilizing:
        system.settle_visibility()
    report = system.check()
    assert report.ok, f"{tag}: {report}"
