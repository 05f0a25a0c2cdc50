"""Unit and differential tests for the sans-I/O protocol core.

The unit half drives :class:`~repro.core.engine.ProtocolCore` directly
with typed events and asserts on the emitted effect stream; the
differential half runs randomized multi-replica traces through the
engine and through the naive flat-list oracle
(:class:`tests.engine_reference.LegacyReplicaCore`, the pre-engine
O(pending^2) loop) and requires identical apply orders, stores, and
timestamps.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.ablations import (
    LaxSenderEdgePolicy,
    NoThirdPartyCheckPolicy,
)
from repro.core.engine import (
    Applied,
    ConfirmApplied,
    EscalateSync,
    ProtocolCore,
    RecordHistory,
    RollbackChannels,
    Send,
)
from repro.core.replica import Replica
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import EdgeIndexedPolicy
from repro.core.timestamp_graph import all_timestamp_graphs
from repro.network.faults import ChannelFaults, FaultPlan, FaultyNetwork
from repro.network.transport import Network
from repro.sim import Simulator
from repro.workloads import clique_placements, random_placements
from tests.engine_reference import LegacyEdgeIndexedPolicy, LegacyReplicaCore


class Harness:
    """One core with a collecting effect sink and a manual clock."""

    def __init__(self, replica_id, graph, **kwargs):
        self.effects = []
        self.now = 0.0
        self.core = ProtocolCore(
            replica_id,
            graph,
            EdgeIndexedPolicy(graph, replica_id),
            self.effects.append,
            clock=lambda: self.now,
            **kwargs,
        )

    def take(self, effect_type):
        taken = [e for e in self.effects if isinstance(e, effect_type)]
        # Mutate in place: the core holds this list's bound ``append``.
        self.effects[:] = [
            e for e in self.effects if not isinstance(e, effect_type)
        ]
        return taken


def assert_index_consistent(core):
    """The blocking-counter index agrees with the queues.

    No waiter without a queue; every filing is fresh (some queued update
    of that sender fails ``J`` on exactly that counter, now); and no
    queued sender is forgotten: each is awaiting re-examination, holds a
    candidate, is filed under the counter its head-of-line update waits
    on, or waits for a sequence number that has not arrived.
    """
    queues, blocked = core._queues, core._blocked_on
    ts, policy = core.timestamp, core.policy
    filed = {}
    for edge, senders in blocked.items():
        assert senders, f"empty waiter set left under {edge!r}"
        for sender in senders:
            filed.setdefault(sender, set()).add(edge)
    for sender, edges in filed.items():
        assert queues.get(sender), f"waiter {sender!r} has no queue"
        fresh = {
            policy.blocking_edge(ts, sender, update.timestamp)
            for update, _, _ in queues[sender].values()
            if not policy.ready(ts, sender, update.timestamp)
        }
        assert edges <= fresh, f"stale filing for {sender!r}: {edges - fresh}"
    if core._blocking_edge is not None:
        for sender, queue in queues.items():
            if sender in core._dirty or sender in core._candidates:
                continue
            seqmap = core._seqmaps.get(sender)
            want = core._next_seq(ts, sender)
            if seqmap is not None and want is not None:
                if want not in seqmap:
                    continue  # its enqueue (or its own apply) wakes it
                heads = [queue[seqmap[want]][0]]
            else:
                heads = [update for update, _, _ in queue.values()]
            for update in heads:
                assert not policy.ready(ts, sender, update.timestamp)
                assert policy.blocking_edge(
                    ts, sender, update.timestamp
                ) in filed.get(sender, ()), (
                    f"queued sender {sender!r} would never be re-examined"
                )
    assert core.queue_stats().blocked_senders == len(filed)


@pytest.fixture
def triangle():
    return ShareGraph({1: {"x", "y"}, 2: {"x", "z"}, 3: {"y", "z"}})


# ----------------------------------------------------------------------
# Event -> effect unit tests
# ----------------------------------------------------------------------
def test_local_write_emits_one_send_per_recipient(triangle):
    h = Harness(1, triangle, record_history=True)
    uid = h.core.local_write("x", 5)
    assert uid.seq == 1 and h.core.seq == 1
    assert h.core.read("x") == 5
    sends = h.take(Send)
    assert [s.dst for s in sends] == [2]  # only replica 2 shares x
    assert sends[0].update.uid == uid and sends[0].update.value == 5
    records = h.take(RecordHistory)
    assert [(r.kind, r.uid) for r in records] == [("issue", uid)]
    assert not h.effects  # nothing else leaked


def test_out_of_order_delivery_buffers_then_applies_in_issue_order(triangle):
    writer = Harness(1, triangle)
    receiver = Harness(2, triangle, emit_applied=True)
    u1 = u2 = None
    for value in (1, 2):
        writer.core.local_write("x", value)
    u1, u2 = (s.update for s in writer.take(Send))
    receiver.core.remote_update(1, u2)  # FIFO gap: must buffer
    assert receiver.take(Applied) == []
    assert receiver.core.pending_count == 1
    stats = receiver.core.queue_stats()
    assert (stats.pending_total, stats.senders, stats.indexed_senders) == (1, 1, 1)
    # "Why is u2 still pending": e_12 holds 0 and must reach 1 first
    # (answered by the policy on demand: a sender waiting for a sequence
    # number is not filed, its next enqueue re-examines it).
    assert stats.blocked_senders == 0
    assert receiver.core.blocked_on() == {1: ((1, 2), 0, 1)}
    assert_index_consistent(receiver.core)
    receiver.core.remote_update(1, u1)  # gap closes: both apply, in order
    assert [a.update.uid for a in receiver.take(Applied)] == [u1.uid, u2.uid]
    assert receiver.core.read("x") == 2
    assert receiver.core.pending_count == 0
    assert receiver.core.queue_stats().senders == 0
    assert receiver.core.blocked_on() == {}
    assert_index_consistent(receiver.core)


def test_paused_core_defers_drain_until_tick(triangle):
    writer = Harness(1, triangle)
    receiver = Harness(2, triangle, emit_applied=True)
    writer.core.local_write("x", 7)
    (send,) = writer.take(Send)
    receiver.core.paused = True
    receiver.core.remote_update(1, send.update)
    assert receiver.take(Applied) == []
    receiver.core.paused = False
    receiver.core.tick()
    assert [a.update.value for a in receiver.take(Applied)] == [7]


# ----------------------------------------------------------------------
# Backpressure and anti-entropy pre-checks
# ----------------------------------------------------------------------
def _updates(graph, writer_id, register, count):
    h = Harness(writer_id, graph)
    for value in range(count):
        h.core.local_write(register, value)
    return [s.update for s in h.take(Send) if s.dst == 2]


def test_stale_redelivery_is_discarded_and_confirmed(triangle):
    receiver = Harness(2, triangle, emit_confirm=True)
    receiver.core.sync_armed = True
    u1, u2 = _updates(triangle, 1, "x", 2)
    receiver.core.remote_update(1, u1)
    receiver.core.remote_update(1, u2)
    assert receiver.core.metrics.applied_remote == 2
    receiver.take(ConfirmApplied)
    receiver.core.remote_update(1, u1)  # below the frontier: never re-apply
    assert receiver.core.metrics.applied_remote == 2
    assert receiver.core.metrics.stale_discarded == 1
    (confirm,) = receiver.take(ConfirmApplied)
    assert confirm.update is u1
    assert receiver.core.read("x") == 1  # not rolled back


def test_sender_gap_escalates_but_still_buffers(triangle):
    receiver = Harness(2, triangle)
    receiver.core.sync_armed = True
    receiver.core.gap_threshold = 2
    u1, u2, u3 = _updates(triangle, 1, "x", 3)
    receiver.core.remote_update(1, u3)  # seq 3 vs expected 1: gap of 2
    assert [e.reason for e in receiver.take(EscalateSync)] == ["gap"]
    assert receiver.core.pending_count == 1  # enqueued regardless


def test_pending_cap_sheds_buffer_and_escalates(triangle):
    receiver = Harness(2, triangle)
    receiver.core.sync_armed = True
    receiver.core.pending_cap = 2
    u1, u2, u3 = _updates(triangle, 1, "x", 3)
    receiver.core.remote_update(1, u2)
    assert receiver.take(EscalateSync) == []
    receiver.core.remote_update(1, u3)  # hits the cap
    assert [e.reason for e in receiver.take(EscalateSync)] == ["overflow"]
    assert [e.shed for e in receiver.take(RollbackChannels)] == [2]
    assert receiver.core.pending_count == 0
    assert receiver.core.metrics.updates_shed == 2
    assert_index_consistent(receiver.core)
    receiver.core.remote_update(1, u1)  # redelivery proceeds normally
    assert receiver.core.metrics.applied_remote == 1


def _third_party_blocked(graph):
    """Replica 3 holding an update from 2 that waits on a write of 1."""
    one, two = Harness(1, graph), Harness(2, graph)
    three = Harness(3, graph, emit_applied=True)
    one.core.local_write("y", "dep")  # 1 -> 3
    (dep,) = (s.update for s in one.take(Send))
    one.core.local_write("x", "seen")  # 1 -> 2, carries e_13 = 1
    (seen,) = (s.update for s in one.take(Send))
    two.core.remote_update(1, seen)
    two.core.local_write("z", "after")  # 2 -> 3, depends on `dep`
    (after,) = (s.update for s in two.take(Send))
    three.core.remote_update(2, after)
    assert three.core.queue_stats().blocked_senders == 1
    assert three.core.blocked_on() == {2: ((1, 3), 0, 1)}
    assert_index_consistent(three.core)
    return three, dep, after


def test_blocked_sender_is_filed_under_the_third_party_counter(triangle):
    """An update that is next in its sender's sequence but depends on a
    third party's write is filed under that third party's edge, and only
    a change to that counter looks at its queue again."""
    three, dep, after = _third_party_blocked(triangle)
    assert three.take(Applied) == []
    assert three.core.metrics.candidate_probes == 1
    three.core.local_write("z", "mine")  # raises e_31, e_32: wakes nobody
    three.core.tick()
    assert three.core.metrics.candidate_probes == 1
    three.core.remote_update(1, dep)  # raises e_13: wakes sender 2
    assert [a.update.value for a in three.take(Applied)] == ["dep", "after"]
    assert three.core.blocked_on() == {}
    assert three.core.metrics.candidate_probes == 3
    assert_index_consistent(three.core)


def test_buffer_resets_keep_the_wake_index_consistent(triangle):
    """clear/shed/install_sync/the pending setter must not leave a waiter
    behind for a sender whose queue is gone."""
    three, dep, after = _third_party_blocked(triangle)
    three.core.clear_pending()
    assert three.core.blocked_on() == {}
    assert_index_consistent(three.core)

    three, dep, after = _third_party_blocked(triangle)
    assert three.core.shed_pending() == 1
    assert three.core.queue_stats().blocked_senders == 0
    assert_index_consistent(three.core)

    three, dep, after = _third_party_blocked(triangle)
    snapshot = list(three.core.pending)
    three.core.pending = snapshot  # re-buffered: filed again on the drain
    assert three.core.queue_stats().blocked_senders == 0
    assert_index_consistent(three.core)
    three.core.tick()
    assert three.core.blocked_on() == {2: ((1, 3), 0, 1)}
    assert_index_consistent(three.core)
    # A snapshot covering `dep` sheds the buffer; redelivery then applies.
    three.core.install_sync(dep.timestamp, {"y": "dep"}, {})
    assert three.core.queue_stats().blocked_senders == 0
    assert three.core.blocked_on() == {}
    assert_index_consistent(three.core)
    three.core.remote_update(2, after)
    assert [a.update.value for a in three.take(Applied)] == ["after"]


def test_installed_timestamp_wakes_every_buffered_sender(triangle):
    """A timestamp installed through the adapter can make a buffered
    update the next in its sender's sequence.  The next arrival from that
    sender is beyond it, so it judges nothing itself: the install must
    have marked the sender for the drain, or ``u2`` is stranded."""
    u1, u2, u3 = _updates(triangle, 1, "x", 3)
    applied = []
    receiver = Replica(
        2,
        triangle,
        EdgeIndexedPolicy(triangle, 2),
        Network(Simulator(seed=0)),
        on_apply=lambda rep, src, update: applied.append(update.uid),
    )
    receiver.on_message(1, u2)
    assert receiver.pending_count == 1
    frontier = Harness(2, triangle)  # the frontier u1's apply leaves
    frontier.core.remote_update(1, u1)
    receiver.timestamp = frontier.core.timestamp
    receiver.on_message(1, u3)
    assert applied == [u2.uid, u3.uid]
    assert receiver.pending_count == 0
    assert_index_consistent(receiver.core)


def test_gating_flags_suppress_effect_allocation(triangle):
    writer = Harness(1, triangle)  # all gates off
    receiver = Harness(2, triangle)
    writer.core.local_write("x", 1)
    (send,) = writer.take(Send)
    assert writer.effects == []  # no history records
    assert send.wire_bytes > 0  # size_wire defaults on
    writer.core.size_wire = False
    writer.core.local_write("x", 2)
    assert writer.take(Send)[0].wire_bytes == 0
    receiver.core.remote_update(1, send.update)
    assert receiver.effects == []  # no Applied/Confirm/History emitted


# ----------------------------------------------------------------------
# Differential: engine vs the naive flat-list oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 23, 91])
def test_engine_matches_naive_rescan_oracle(seed):
    _run_against_naive_rescan(seed, EdgeIndexedPolicy)


@pytest.mark.parametrize(
    "policy_cls",
    [NoThirdPartyCheckPolicy, LaxSenderEdgePolicy],
    ids=["no-third-party", "lax-sender-edge"],
)
@pytest.mark.parametrize("seed", [0, 7, 23, 91])
def test_ablations_match_naive_rescan_oracle(seed, policy_cls):
    """The ablation policies violate safety, and must keep violating it
    in exactly the naive loop's apply order (a merge without the
    third-party gate can raise *another* sender's edge, which the wake
    index has to survive)."""
    _run_against_naive_rescan(seed, policy_cls)


def _run_against_naive_rescan(seed, policy_cls):
    placements = {
        1: {"x", "y"},
        2: {"x", "z"},
        3: {"y", "z", "w"},
        4: {"x", "w"},
    }
    graph = ShareGraph(placements)
    rng = random.Random(seed)
    applied = {rid: [] for rid in placements}
    legacy_applied = {rid: [] for rid in placements}
    pool = []  # (dst, src, update) -- index-aligned across both sides
    legacy_pool = []

    def make_core(rid):
        def emit(eff):
            if isinstance(eff, Send):
                pool.append((eff.dst, rid, eff.update))
            elif isinstance(eff, Applied):
                applied[rid].append((eff.src, eff.update.uid))

        return ProtocolCore(
            rid,
            graph,
            policy_cls(graph, rid),
            emit,
            clock=lambda: 0.0,
            emit_applied=True,
        )

    cores = {rid: make_core(rid) for rid in placements}
    oracles = {
        rid: LegacyReplicaCore(
            rid,
            graph,
            LegacyEdgeIndexedPolicy(graph, rid)
            if policy_cls is EdgeIndexedPolicy
            else policy_cls(graph, rid),
        )
        for rid in placements
    }
    replicas = sorted(placements)

    def deliver(index):
        dst, src, update = pool.pop(index)
        l_dst, l_src, l_update = legacy_pool.pop(index)
        assert (dst, src, update.uid) == (l_dst, l_src, l_update.uid)
        cores[dst].remote_update(src, update)
        assert_index_consistent(cores[dst])
        for sender, applied_update in oracles[dst].remote_update(l_src, l_update):
            legacy_applied[dst].append((sender, applied_update.uid))

    for step in range(60):
        writer = rng.choice(replicas)
        register = rng.choice(sorted(placements[writer]))
        cores[writer].local_write(register, step)
        legacy_pool.extend(
            (dst, writer, update)
            for dst, update in oracles[writer].local_write(register, step)
        )
        while pool and rng.random() < 0.6:
            deliver(rng.randrange(len(pool)))
    while pool:
        deliver(rng.randrange(len(pool)))

    for rid in placements:
        assert applied[rid] == legacy_applied[rid]
        assert cores[rid].store == oracles[rid].store
        assert cores[rid].timestamp == oracles[rid].timestamp
        # An ablation can strand an update it overtook; the safe policy
        # never does.
        assert cores[rid].pending_count == len(oracles[rid].pending)
        if policy_cls is EdgeIndexedPolicy:
            assert cores[rid].pending_count == 0


def _record_inputs(replica, log):
    """Log every input the replica's core receives, in order."""
    core = replica.core
    local_write, remote_update = core.local_write, core.remote_update

    def logged_write(register, value, **kwargs):
        log.append(("write", register, value))
        return local_write(register, value, **kwargs)

    def logged_update(src, update):
        log.append(("recv", src, update))
        remote_update(src, update)
        assert_index_consistent(core)

    core.local_write, core.remote_update = logged_write, logged_update


@pytest.mark.parametrize("duplication", [0.0, 0.25], ids=["reliable", "dups"])
def test_dense_engine_matches_naive_rescan_oracle(duplication):
    """The bench's dense shape (24 replicas, 80 registers x 10 holders,
    150 writes per virtual time unit: deep queues, most senders waiting
    on a gap) against the naive rescan, per replica and byte for byte.

    With ``duplication`` the raw faulty transport hands the engine
    duplicate sequence numbers, which degrade those senders' queues to
    the scan path (every scanned entry files its own counter).  Each
    replica's recorded inputs are replayed through the oracle: applies
    are a function of one replica's input order alone.
    """
    graph = ShareGraph(random_placements(24, 80, 10, seed=11))
    edges = {r: tg.edges for r, tg in all_timestamp_graphs(graph).items()}
    simulator = Simulator(seed=7)
    network = FaultyNetwork(
        simulator,
        plan=FaultPlan(
            seed=99,
            default=ChannelFaults(duplication=duplication),
            horizon=1e9,
        ),
    )
    applied = {r: [] for r in graph.replicas}
    inputs = {r: [] for r in graph.replicas}
    replicas = {}
    for rid in graph.replicas:
        replicas[rid] = Replica(
            rid,
            graph,
            EdgeIndexedPolicy(graph, rid, edges=edges[rid]),
            network,
            on_apply=lambda rep, src, update: applied[rep.replica_id].append(
                (src, update.uid)
            ),
        )
        _record_inputs(replicas[rid], inputs[rid])
    rng = random.Random(5)
    now = 0.0
    for step in range(300):
        now += rng.expovariate(150.0)
        writer = rng.choice(graph.replicas)
        shared = sorted(
            x
            for x in graph.registers_at(writer)
            if len(graph.replicas_storing(x)) > 1
        )
        simulator.schedule_at(now, replicas[writer].write, rng.choice(shared), step)
    simulator.run()

    scanned = probes = applies = 0
    for rid, replica in replicas.items():
        oracle = LegacyReplicaCore(
            rid, graph, LegacyEdgeIndexedPolicy(graph, rid, edges=edges[rid])
        )
        legacy_applied = []
        for kind, a, b in inputs[rid]:
            if kind == "write":
                oracle.local_write(a, b)
            else:
                legacy_applied += [
                    (src, u.uid) for src, u in oracle.remote_update(a, b)
                ]
        assert applied[rid] == legacy_applied
        assert replica.timestamp == oracle.timestamp
        assert replica.pending_count == len(oracle.pending)
        stats = replica.queue_stats()
        scanned += stats.senders - stats.indexed_senders
        probes += replica.metrics.candidate_probes
        applies += replica.metrics.applied_remote
    if duplication:
        # Late duplicates stay buffered (nothing discards them without
        # the sync layer), so scan-path queues must survive to the end.
        assert scanned > 0
    else:
        assert all(r.pending_count == 0 for r in replicas.values())
        # Wake precision: the coarse wake set probed ~7.9 queues per apply
        # here; one counter per blocked sender brings it to ~1.5.
        assert probes / applies <= 2.0


# ----------------------------------------------------------------------
# Arrival-judged delivery vs the drain it short-cuts
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _twin_graph(name):
    placements = {
        "clique-6": lambda: clique_placements(6),
        "dense-24": lambda: random_placements(24, 80, 10, seed=11),
    }[name]()
    graph = ShareGraph(placements)
    edges = {r: tg.edges for r, tg in all_timestamp_graphs(graph).items()}
    return graph, edges


class _Twins:
    """Every replica as two cores fed identical inputs.

    ``fast[r]`` receives through :meth:`ProtocolCore.remote_update` as
    it is; ``drained[r]`` is forced down the buffer-then-drain path on
    every arrival (paused across the call, then ticked).  ``log[r]``
    keeps the inputs that reached ``r``'s state, in order, for the naive
    oracle: shed and stale-discarded deliveries never did.
    """

    def __init__(self, name):
        self.graph, self.edges = _twin_graph(name)
        self.now = 0.0
        self.pool = []  # (dst, src, update) in flight
        self.sent = []
        self.applied = {}
        self.log = {r: [] for r in self.graph.replicas}
        self.fast, self.drained = {}, {}
        for rid in self.graph.replicas:
            for side, cores in (("fast", self.fast), ("drained", self.drained)):
                applied = self.applied[side, rid] = []
                cores[rid] = ProtocolCore(
                    rid,
                    self.graph,
                    EdgeIndexedPolicy(self.graph, rid, edges=self.edges[rid]),
                    functools.partial(self._effect, applied),
                    clock=lambda: self.now,
                    emit_applied=True,
                )

    def _effect(self, applied, effect):
        if isinstance(effect, Applied):
            applied.append((effect.src, effect.update.uid))
        elif isinstance(effect, Send):
            self.sent.append((effect.dst, effect.update))

    def both(self, rid):
        return self.fast[rid], self.drained[rid]

    def write(self, rid, register):
        self.now += 1.0
        sends = []
        for core in self.both(rid):
            core.paused = False
            core.tick()  # a client write finds its replica settled
            self.sent = []
            core.local_write(register, self.now)
            sends.append([(d, u.uid, u.timestamp) for d, u in self.sent])
        assert sends[0] == sends[1]
        self.pool += [(dst, rid, update) for dst, update in self.sent]
        self.log[rid].append((self.now, "write", register, self.now))
        self.check(rid)

    def deliver(self, index, duplicate=False):
        dst, src, update = self.pool[index]
        if not duplicate:
            del self.pool[index]
        self.now += 1.0
        fast, drained = self.both(dst)
        buffered = fast.pending
        stale, shed = fast.metrics.stale_discarded, fast.metrics.updates_shed
        fast.remote_update(src, update)
        paused = drained.paused
        drained.paused = True
        drained.remote_update(src, update)
        drained.paused = paused
        if not paused:
            drained.tick()
        if fast.metrics.updates_shed > shed:
            # The channel layer re-delivers what the shed rolled back.
            gone = {arrived for _, _, arrived in buffered}
            self.log[dst] = [
                entry for entry in self.log[dst] if entry[0] not in gone
            ]
            self.pool += [(dst, s, u) for s, u, _ in buffered]
            self.pool.append((dst, src, update))
        elif fast.metrics.stale_discarded == stale:
            self.log[dst].append((self.now, "recv", src, update))
        self.check(dst)

    def check(self, rid):
        fast, drained = self.both(rid)
        assert self.applied["fast", rid] == self.applied["drained", rid]
        assert fast.timestamp == drained.timestamp
        assert fast.store == drained.store
        assert fast.pending == drained.pending
        assert fast.blocked_on() == drained.blocked_on()
        assert fast.queue_stats() == drained.queue_stats()
        # Judged at most as often as the drain would have judged.
        assert fast.metrics.candidate_probes <= drained.metrics.candidate_probes
        assert replace(fast.metrics, candidate_probes=0) == replace(
            drained.metrics, candidate_probes=0
        )
        assert_index_consistent(fast)
        assert_index_consistent(drained)

    def settle(self):
        for rid in self.graph.replicas:
            for core in self.both(rid):
                core.pending_cap = None
                core.paused = False
                core.tick()
            self.check(rid)
        while self.pool:
            self.deliver(0)

    def assert_matches_oracle(self):
        for rid in self.graph.replicas:
            oracle = LegacyReplicaCore(
                rid,
                self.graph,
                LegacyEdgeIndexedPolicy(self.graph, rid, edges=self.edges[rid]),
            )
            applied = []
            for _, kind, a, b in self.log[rid]:
                if kind == "write":
                    oracle.local_write(a, b)
                else:
                    applied += [
                        (src, u.uid) for src, u in oracle.remote_update(a, b)
                    ]
            core = self.fast[rid]
            assert self.applied["fast", rid] == applied
            assert core.store == oracle.store
            assert core.timestamp == oracle.timestamp
            assert core.pending_count == len(oracle.pending)


_EVENTS = ("write",) * 3 + ("deliver",) * 6 + ("pause", "resume") * 2 + ("arm",)


@pytest.mark.parametrize(
    "name, steps, examples", [("clique-6", 60, 100), ("dense-24", 30, 12)]
)
def test_arrival_judged_delivery_equals_the_drain(name, steps, examples):
    """A core that judges each arrival where it lands is indistinguishable
    from one that buffers it and drains, after every event: reordering,
    duplicates, third-party-blocked updates, pause with an eager or a
    lazy resume (unpaused, nothing drained until the next arrival), and
    an armed pending cap that sheds.  Both end where the naive rescan
    oracle ends on the inputs that reached them.  The dense graph holds
    552 counters per timestamp, so its judgements run in lanes."""

    @settings(
        max_examples=examples,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def run(data):
        world = _Twins(name)
        replicas = sorted(world.graph.replicas)
        for _ in range(steps):
            kind = data.draw(st.sampled_from(_EVENTS))
            if kind == "deliver" and world.pool:
                world.deliver(
                    data.draw(st.integers(0, len(world.pool) - 1)),
                    duplicate=data.draw(st.integers(0, 7)) == 0,
                )
                continue
            rid = data.draw(st.sampled_from(replicas))
            if kind in ("write", "deliver"):
                registers = sorted(world.graph.registers_at(rid))
                world.write(rid, data.draw(st.sampled_from(registers)))
            elif kind == "pause":
                for core in world.both(rid):
                    core.paused = True
            elif kind == "resume":
                eager = data.draw(st.booleans())
                for core in world.both(rid):
                    core.paused = False
                    if eager:
                        core.tick()
                world.check(rid)
            else:
                cap = data.draw(st.integers(2, 5))
                for core in world.both(rid):
                    core.sync_armed = True
                    core.pending_cap = cap
        world.settle()
        world.assert_matches_oracle()

    run()
