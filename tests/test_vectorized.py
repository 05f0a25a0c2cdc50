"""Frame-fold parity: ``EdgeIndexedPolicy.merge_run`` / ``blocked_many``
in lanes vs a step-by-step simulation on the plan walk.

The fold's contract is *byte-identity*: a folded frame must be exactly
what ``ready`` + ``merge_delta`` member by member produce -- the same
timestamp values, the same changed-key frozensets, the same memoized
wire sizes -- only faster.  The hooks serve frames on one shared index
of ``LANE_MIN_WIDTH`` counters or more: a dense 24-replica graph (552
counters) reaches them unforced, an 8-clique (56) with
``force_lane_merge(True)``; the expectations are always computed with
the gate shut, on the walk.
"""

from __future__ import annotations

import random

from repro.core.share_graph import ShareGraph
from repro.core.timestamp import Timestamp, edge_policy_factory
from repro.wire.codec import timestamp_wire_bytes
from repro.workloads import (
    clique_placements,
    random_placements,
    star_placements,
)

#: (placements, force the gate open?) -- both graphs are complete, so
#: every replica tracks every edge and all policies share one index.
SHARED_INDEX_GRAPHS = (
    (random_placements(24, 80, 10, seed=11), False),
    (clique_placements(8), True),
)


def _policies(placements):
    """One policy per replica over one share graph."""
    graph = ShareGraph(placements)
    factory = edge_policy_factory(graph)
    return graph, {rid: factory(graph, rid) for rid in graph.replicas}


def _registers_at(graph, rid):
    return sorted(graph.registers_at(rid), key=str)


def _step_simulation(policy, own, src, run):
    """The generic path's outcome for a frame: (final, changed) or None."""
    changed = frozenset()
    cur = own
    for ts in run:
        if not policy.ready(cur, src, ts):
            return None
        cur, delta = policy.merge_delta(cur, src, ts)
        changed = changed | delta
    return cur, changed


def _frames(graph, policies, rng, trials):
    """Random ``(receiver policy, sender, receiver ts, frame)`` cases:
    ready runs, runs with the head dropped (gapped), and runs whose
    sender has heard a third party's write the receiver has not."""
    rids = sorted(graph.replicas, key=str)
    for trial in range(trials):
        rid, src, other = rng.sample(rids, 3)
        policy, sender = policies[rid], policies[src]
        regs = _registers_at(graph, src)
        sender_ts = sender.initial()
        own = policy.initial()
        if trial % 4 == 0:
            # Age the channel so the run's counters cross the one-byte
            # varint boundary (128): the memoized wire size must track.
            for _ in range(rng.randrange(120, 128)):
                sender_ts = sender.advance(sender_ts, rng.choice(regs))
                own = policy.merge(own, src, sender_ts)
        length = rng.randrange(1, 7)
        blocked_at = rng.randrange(length) if rng.random() < 0.25 else None
        run = []
        for member in range(length):
            if member == blocked_at:
                shared = sorted(graph.shared(other, rid), key=str)[0]
                heard = policies[other].advance(policies[other].initial(), shared)
                sender_ts = sender.merge(sender_ts, other, heard)
            sender_ts = sender.advance(sender_ts, rng.choice(regs))
            run.append(sender_ts)
        if rng.random() < 0.3:
            # Drop the head: the run is now gapped and must be rejected.
            run = run[1:]
        if not run:
            continue
        if rng.random() < 0.5:
            timestamp_wire_bytes(own)
        yield policy, src, own, run


def test_merge_run_matches_scalar_step_simulation(force_lane_merge):
    for placements, forced in SHARED_INDEX_GRAPHS:
        graph, policies = _policies(placements)
        frames = list(_frames(graph, policies, random.Random(23), 120))
        if forced:
            force_lane_merge(True)
        folds = [
            policy.merge_run(own, src, run) for policy, src, own, run in frames
        ]
        force_lane_merge(False)
        hits = misses = 0
        for trial, ((policy, src, own, run), got) in enumerate(zip(frames, folds)):
            expect = _step_simulation(policy, own, src, run)
            if expect is None:
                assert got is None, f"trial {trial}: accepted an unready run"
                misses += 1
                continue
            assert got is not None, f"trial {trial}: rejected a ready run"
            assert got[0] == expect[0], f"trial {trial}: folded values"
            assert got[1] == expect[1], f"trial {trial}: raised keys"
            # A fold carries the memo only while no varint changed length.
            assert got[0]._wire_size in (None, expect[0]._wire_size)
            assert timestamp_wire_bytes(got[0]) == timestamp_wire_bytes(expect[0])
            fresh = Timestamp.from_array(got[0].edge_index, got[0].values_array)
            assert got[0]._packed == fresh._pack() is not None
            hits += 1
        assert hits > 10 and misses > 10, "matrix never exercised both answers"


def test_blocked_many_is_sound(force_lane_merge):
    """blocked_many must never claim 'blocked' for a member that the
    scalar predicate judges ready at the final frontier (readiness at
    any intermediate frontier implies readiness conditions under the
    final one, by monotonicity)."""
    for placements, forced in SHARED_INDEX_GRAPHS:
        if forced:
            force_lane_merge(True)
        graph, policies = _policies(placements)
        rng = random.Random(99)
        rids = sorted(graph.replicas, key=str)
        proved = unproved = 0
        for trial in range(100):
            rid, src = rng.sample(rids, 2)
            policy, sender = policies[rid], policies[src]
            regs = _registers_at(graph, src)
            sender_ts = sender.initial()
            queue = []
            for _ in range(rng.randrange(2, 7)):
                sender_ts = sender.advance(sender_ts, rng.choice(regs))
                queue.append(sender_ts)
            final = policy.initial()
            for _ in range(rng.randrange(0, 3)):
                final = policy.merge(final, src, queue[0])
            # Drop a prefix so some queues are gapped beyond the frontier --
            # the provably-blocked shape the engine sees in practice.
            queue = queue[rng.randrange(0, len(queue)) :]
            if policy.blocked_many(final, src, queue):
                assert not any(policy.ready(final, src, ts) for ts in queue)
                proved += 1
            else:
                unproved += 1
        assert proved and unproved


def test_heterogeneous_sender_indexes_fall_back(force_lane_merge):
    force_lane_merge(True)
    graph, policies = _policies(star_placements(4))
    policy, src = policies[1], 2  # the hub and two of its leaves
    a = policies[src].initial()
    b = policies[3].initial()
    assert len({policy._eindex, a.edge_index, b.edge_index}) == 3
    own = policy.initial()
    # A sender on another index, or mixed indexes in one frame: "cannot
    # prove", never a crash.
    for frame in ([a], [own, a], [a, b]):
        assert policy.merge_run(own, src, frame) is None
        assert policy.blocked_many(own, src, frame) is False


def test_gate_shut_declines_both_hooks(force_lane_merge):
    graph, policies = _policies(clique_placements(8))
    policy, sender = policies[2], policies[1]
    sender_ts = sender.advance(sender.initial(), "x0")
    own = policy.initial()
    force_lane_merge(True)
    assert policy.merge_run(own, 1, [sender_ts]) is not None
    assert policy.merge_run(own, 1, []) == (own, frozenset())
    assert policy.blocked_many(own, 1, []) is True  # vacuously
    force_lane_merge(False)
    assert policy.merge_run(own, 1, [sender_ts]) is None
    assert policy.blocked_many(own, 1, [sender_ts]) is False


def test_subclass_with_its_own_predicate_gets_no_lane_fold(force_lane_merge):
    """The fold proves the base class's ``J``; a subclass that weakens
    it (the ablations) must fall back to the generic path, where its own
    ``ready`` decides."""
    from repro.baselines.ablations import NoThirdPartyCheckPolicy

    force_lane_merge(True)
    graph, policies = _policies(clique_placements(8))
    sender_ts = policies[1].advance(policies[1].initial(), "x0")
    assert policies[2].merge_run(
        policies[2].initial(), 1, [sender_ts]
    ) is not None
    ablation = NoThirdPartyCheckPolicy(graph, 2)
    own = ablation.initial()
    assert ablation.merge_run(own, 1, [sender_ts]) is None
    assert ablation.blocked_many(own, 1, [sender_ts]) is False
