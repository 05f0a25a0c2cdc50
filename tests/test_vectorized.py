"""Frame-kernel parity: the numpy side of ``EdgeIndexedPolicy.merge_run``
/ ``blocked_many`` vs a scalar step-by-step simulation.

The kernels' contract is *byte-identity*: a folded frame must be exactly
what ``ready`` + ``merge_delta`` member by member produce -- the same
timestamp values, the same changed-key frozensets, the same memoized
wire sizes -- only faster.  The policy normally declines frames too
small to repay numpy; ``force_frame_kernels(True)`` drops that threshold
to zero so these small graphs reach the kernels, ``(False)`` hides numpy.
"""

from __future__ import annotations

import random

import pytest

from repro.core.share_graph import ShareGraph
from repro.core.timestamp import edge_policy_factory
from repro.wire.codec import timestamp_wire_bytes
from repro.workloads import random_placements

pytest.importorskip("numpy")


def _policies(seed=11, replicas=8, writes=20, per=4):
    """One policy per replica over one dense share graph."""
    graph = ShareGraph(random_placements(replicas, writes, per, seed=seed))
    factory = edge_policy_factory(graph)
    return graph, {rid: factory(graph, rid) for rid in graph.replicas}


def _registers_at(graph, rid):
    return sorted(graph.registers_at(rid), key=str)


def _scalar_run(scalar, own, src, run):
    """The generic path's outcome for a frame: (final, changed) or None."""
    changed = frozenset()
    cur = own
    for ts in run:
        if not scalar.ready(cur, src, ts):
            return None
        cur, delta = scalar.merge_delta(cur, src, ts)
        if delta:
            changed = changed | delta
    return cur, changed


def test_merge_run_matches_scalar_step_simulation(force_frame_kernels):
    force_frame_kernels(True)
    graph, policies = _policies(seed=9)
    rng = random.Random(23)
    rids = sorted(graph.replicas, key=str)
    hits = 0
    for trial in range(120):
        rid, src = rng.sample(rids, 2)
        policy, sender = policies[rid], policies[src]
        regs = _registers_at(graph, src)
        if not regs:
            continue
        sender_ts = sender.initial()
        own = policy.initial()
        if trial % 4 == 0:
            # Age the channel so the run's counters cross the one-byte
            # varint boundary (128): the memoized wire size must track.
            for _ in range(rng.randrange(120, 128)):
                sender_ts = sender.advance(sender_ts, rng.choice(regs))
                own = policy.merge(own, src, sender_ts)
        run = []
        for _ in range(rng.randrange(1, 7)):
            sender_ts = sender.advance(sender_ts, rng.choice(regs))
            run.append(sender_ts)
        if rng.random() < 0.3:
            # Drop the head: the run is now gapped and must be rejected.
            run = run[1:]
        if not run:
            continue
        if rng.random() < 0.5:
            timestamp_wire_bytes(own)
        expect = _scalar_run(policy, own, src, run)
        got = policy.merge_run(own, src, run)
        if expect is None:
            assert got is None, f"trial {trial}: accepted an unready run"
        else:
            assert got is not None, f"trial {trial}: rejected a ready run"
            assert got[0] == expect[0], f"trial {trial}: folded values"
            assert got[1] == expect[1], f"trial {trial}: raised keys"
            assert got[0]._wire_size == expect[0]._wire_size
            hits += 1
    assert hits > 10, "matrix never exercised the accepting path"


def test_blocked_many_is_sound(force_frame_kernels):
    """blocked_many must never claim 'blocked' for a member that the
    scalar predicate judges ready at the final frontier (readiness at
    any intermediate frontier implies readiness conditions under the
    final one, by monotonicity)."""
    force_frame_kernels(True)
    graph, policies = _policies(seed=3)
    rng = random.Random(99)
    rids = sorted(graph.replicas, key=str)
    checked = 0
    for trial in range(100):
        rid, src = rng.sample(rids, 2)
        policy, sender = policies[rid], policies[src]
        regs = _registers_at(graph, src)
        if not regs:
            continue
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
            for ts in queue:
                assert not policy.ready(final, src, ts)
            checked += 1
    assert checked > 0


def test_heterogeneous_sender_indexes_fall_back(force_frame_kernels):
    force_frame_kernels(True)
    graph, policies = _policies(seed=13)
    rids = sorted(graph.replicas, key=str)
    rid, src = rids[0], rids[1]
    policy = policies[rid]
    a = policies[src].initial()
    b = policies[rids[2]].initial()
    own = policy.initial()
    # Mixed edge indexes in one frame: "cannot prove", never a crash.
    assert policy.merge_run(own, src, [a, b]) is None
    assert policy.blocked_many(own, src, [a, b]) is False


def test_scalar_fallback_without_numpy(force_frame_kernels):
    graph, policies = _policies(seed=17)
    rids = sorted(graph.replicas, key=str)
    rid = rids[0]
    src = sorted(graph.neighbors(rid), key=str)[0]
    policy, sender = policies[rid], policies[src]
    shared = sorted(graph.shared(src, rid), key=str)[0]
    sender_ts = sender.advance(sender.initial(), shared)
    own = policy.initial()
    force_frame_kernels(True)
    assert policy.merge_run(own, src, [sender_ts]) is not None
    force_frame_kernels(False)
    assert policy.merge_run(own, src, [sender_ts]) is None
    assert policy.blocked_many(own, src, [sender_ts]) is False


def test_subclass_with_its_own_predicate_gets_no_frame_kernels(
    force_frame_kernels,
):
    """The kernels prove the base class's ``J``; a subclass that weakens
    it (the ablations) must fall back to the generic path, where its own
    ``ready`` decides."""
    from repro.baselines.ablations import NoThirdPartyCheckPolicy

    force_frame_kernels(True)
    graph, policies = _policies(seed=17)
    rids = sorted(graph.replicas, key=str)
    rid = rids[0]
    src = sorted(graph.neighbors(rid), key=str)[0]
    shared = sorted(graph.shared(src, rid), key=str)[0]
    sender_ts = policies[src].advance(policies[src].initial(), shared)
    assert policies[rid].merge_run(
        policies[rid].initial(), src, [sender_ts]
    ) is not None
    ablation = NoThirdPartyCheckPolicy(graph, rid)
    own = ablation.initial()
    assert ablation.merge_run(own, src, [sender_ts]) is None
    assert ablation.blocked_many(own, src, [sender_ts]) is False
