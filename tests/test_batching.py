"""Batched delivery: accumulator units, engine equivalence, system runs.

The batching contract is *observational equivalence*: delivering a
coalesced frame through ``ProtocolCore.remote_batch`` must leave the
receiver in exactly the state that delivering the members one by one
through ``remote_update`` would -- same store, same timestamp, same
apply order -- whether the frame takes the generic buffer-and-drain
path or the run-apply fast path (one lane fold), which the policy
picks per frame from the timestamps' width.  On top of that sit the
adapter invariants: a flush window reduces message count without
breaking the causal checker, rejects configurations it cannot honour
(ARQ fault plans ack individual updates), and converges under the
TCP runtime.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys

import pytest

from repro import DSMSystem, ShareGraph, Timestamp
from repro.clientserver import ClientServerSystem
from repro.core.engine import (
    Applied,
    BatchAccumulator,
    ProtocolCore,
    RecordHistory,
    Send,
    UpdateBatch,
)
from repro.core.timestamp import EdgeIndexedPolicy
from repro.errors import ConfigurationError
from repro.network.faults import FaultPlan
from repro.types import Update, UpdateId
from repro.wire.codec import timestamp_wire_bytes
from repro.workloads import (
    clique_placements,
    fig5_placements,
    random_placements,
    run_workload,
    uniform_writes,
)


def _update(seq, value="v"):
    return Update(UpdateId(1, seq), "x", value, Timestamp({(1, 2): seq}))


# ----------------------------------------------------------------------
# BatchAccumulator units
# ----------------------------------------------------------------------
class TestBatchAccumulator:
    def test_max_updates_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchAccumulator(max_updates=0)

    def test_full_destination_returns_eager_frame(self):
        acc = BatchAccumulator(max_updates=3)
        assert acc.add(2, _update(1), metadata_counters=4, wire_bytes=10) is None
        assert acc.add(2, _update(2), metadata_counters=4, wire_bytes=11) is None
        assert acc.pending == 2
        frame = acc.add(2, _update(3), metadata_counters=4, wire_bytes=12)
        assert isinstance(frame, UpdateBatch)
        assert frame.dst == 2
        assert [u.uid.seq for u in frame.updates] == [1, 2, 3]
        # Accounting is the sum over members: byte-for-byte what the
        # unbatched path would have charged.
        assert frame.metadata_counters == 12
        assert frame.wire_bytes == 33
        assert acc.pending == 0
        assert acc.flush() == []

    def test_flush_emits_one_frame_per_destination_in_order(self):
        acc = BatchAccumulator()
        acc.add(3, _update(1))
        acc.add(2, _update(1))
        acc.add(3, _update(2))
        assert acc.pending == 3
        frames = acc.flush()
        assert [f.dst for f in frames] == [3, 2]  # insertion order
        assert [len(f.updates) for f in frames] == [2, 1]
        assert acc.pending == 0
        assert acc.flush() == []

    def test_eager_frame_leaves_other_destinations_buffered(self):
        acc = BatchAccumulator(max_updates=2)
        acc.add(2, _update(1))
        acc.add(3, _update(1))
        frame = acc.add(2, _update(2))
        assert frame is not None and frame.dst == 2
        assert acc.pending == 1
        (rest,) = acc.flush()
        assert rest.dst == 3


# ----------------------------------------------------------------------
# Engine equivalence: remote_batch vs member-by-member remote_update
# ----------------------------------------------------------------------
class _Harness:
    """One core with a collecting effect sink, manual clock, any policy."""

    def __init__(self, replica_id, graph, policy, **kwargs):
        self.effects = []
        self.now = 0.0
        self.core = ProtocolCore(
            replica_id,
            graph,
            policy,
            self.effects.append,
            clock=lambda: self.now,
            **kwargs,
        )

    def applied_uids(self):
        return [e.update.uid for e in self.effects if isinstance(e, Applied)]


class _CountingPolicy(EdgeIndexedPolicy):
    """Counts accepted ``merge_run`` folds (fast-path activations)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.run_hits = 0

    def merge_run(self, ts, sender, sender_timestamps):
        out = super().merge_run(ts, sender, sender_timestamps)
        if out is not None:
            self.run_hits += 1
        return out


TRIANGLE = {1: {"x", "y"}, 2: {"x", "z"}, 3: {"y", "z"}}


def _issue_run(graph, count, register="x"):
    """``count`` writes at replica 1, as replica 2 receives them."""
    writer = _Harness(1, graph, EdgeIndexedPolicy(graph, 1))
    for n in range(count):
        writer.core.local_write(register, n)
    return [
        e.update for e in writer.effects if isinstance(e, Send) and e.dst == 2
    ]


def _receiver_pair(graph, policy_cls=EdgeIndexedPolicy):
    pair = tuple(
        _Harness(
            2,
            graph,
            policy_cls(graph, 2),
            emit_applied=True,
            record_history=True,
        )
        for _ in range(2)
    )
    for harness in pair:
        # Memoise the wire size up front, so every merge after this has
        # to maintain it incrementally.
        timestamp_wire_bytes(harness.core.timestamp)
    return pair


def _assert_same_outcome(a, b):
    assert a.core.timestamp == b.core.timestamp
    assert a.core.store == b.core.store
    assert a.core.pending_count == b.core.pending_count
    assert a.core.metrics.applied_remote == b.core.metrics.applied_remote
    assert a.applied_uids() == b.applied_uids()
    history = [
        [(e.kind, e.uid, e.time) for e in h.effects if isinstance(e, RecordHistory)]
        for h in (a, b)
    ]
    assert history[0] == history[1]
    for ts in (a.core.timestamp, b.core.timestamp):
        size = timestamp_wire_bytes(Timestamp(ts.to_dict()))
        # A lane path carries the memo only while no varint changed length.
        assert ts._wire_size in (None, size)
        assert timestamp_wire_bytes(ts) == size


@pytest.mark.parametrize("lanes", [False, True], ids=["scalar", "vectorized"])
class TestRemoteBatchEquivalence:
    @pytest.fixture(autouse=True)
    def _side(self, force_lane_merge, lanes):
        force_lane_merge(lanes)

    def test_ready_frame_matches_sequential_delivery(self):
        graph = ShareGraph(TRIANGLE)
        updates = _issue_run(graph, 6)
        seq, bat = _receiver_pair(graph)
        for u in updates:
            seq.core.remote_update(1, u)
        bat.core.remote_batch(1, updates)
        _assert_same_outcome(seq, bat)
        assert bat.core.read("x") == 5
        assert bat.core.pending_count == 0

    def test_gapped_frame_buffers_then_drains_identically(self):
        graph = ShareGraph(TRIANGLE)
        updates = _issue_run(graph, 5)
        seq, bat = _receiver_pair(graph)
        # Head missing: every member must buffer, nothing applies ...
        for u in updates[1:]:
            seq.core.remote_update(1, u)
        bat.core.remote_batch(1, updates[1:])
        _assert_same_outcome(seq, bat)
        assert bat.core.pending_count == 4
        assert bat.applied_uids() == []
        # ... until the gap closes and both drain the full run in order.
        seq.core.remote_update(1, updates[0])
        bat.core.remote_update(1, updates[0])
        _assert_same_outcome(seq, bat)
        assert bat.core.pending_count == 0
        assert [u.uid.seq for u in updates] == [
            uid.seq for uid in bat.applied_uids()
        ]

    def test_handle_remote_batch_event_dispatches(self):
        graph = ShareGraph(TRIANGLE)
        updates = _issue_run(graph, 3)
        seq, bat = _receiver_pair(graph)
        for u in updates:
            seq.core.remote_update(1, u)
        bat.core.remote_batch(1, tuple(updates))
        _assert_same_outcome(seq, bat)


class TestRunApplyFastPath:
    """Engine behaviour around an accepted fold, on graphs far too
    narrow for the policy to pick the lanes unforced."""

    @pytest.fixture(autouse=True)
    def _lanes(self, force_lane_merge):
        force_lane_merge(True)

    def test_ready_frame_takes_one_fold(self):
        graph = ShareGraph(TRIANGLE)
        updates = _issue_run(graph, 8)
        policy = _CountingPolicy(graph, 2)
        receiver = _Harness(2, graph, policy, emit_applied=True)
        receiver.core.remote_batch(1, updates)
        assert policy.run_hits == 1  # whole frame, one merge
        assert receiver.core.read("x") == 7
        assert receiver.core.pending_count == 0
        assert receiver.core.metrics.applied_remote == 8

    def test_gapped_frame_rejects_fold_and_buffers(self):
        graph = ShareGraph(TRIANGLE)
        updates = _issue_run(graph, 4)
        policy = _CountingPolicy(graph, 2)
        receiver = _Harness(2, graph, policy, emit_applied=True)
        receiver.core.remote_batch(1, updates[1:])
        assert policy.run_hits == 0
        assert receiver.core.pending_count == 3

    def test_fast_path_mirrors_pending_high_water(self):
        graph = ShareGraph(TRIANGLE)
        updates = _issue_run(graph, 5)
        policy = _CountingPolicy(graph, 2)
        receiver = _Harness(2, graph, policy)
        receiver.core.remote_batch(1, updates)
        # The generic path would have buffered all 5 before draining;
        # the fold must report the same high-water mark.
        assert receiver.core.metrics.pending_high_water == 5

    def test_run_fold_rewakes_waiters_of_the_counters_it_raised(self):
        """A buffered update waits on two third-party writes and is filed
        under the first.  A folded frame delivers that first one past a
        non-empty buffer (the ``blocked_many`` proof holds: the second is
        still missing); the waiter must move to the second counter, or
        the delivery that raises it would wake nobody."""
        graph = ShareGraph(
            {
                1: {"a", "as"},
                2: {"b", "bs"},
                3: {"s", "as", "bs"},
                4: {"a", "b", "s"},
            }
        )
        cores = {
            r: _Harness(r, graph, EdgeIndexedPolicy(graph, r)) for r in (1, 2, 3)
        }

        def write(rid, register):
            cores[rid].core.local_write(register, register)
            sends = [e for e in cores[rid].effects if isinstance(e, Send)]
            del cores[rid].effects[:]
            return {e.dst: e.update for e in sends}

        a1 = write(1, "a")[4]
        b1 = write(2, "b")[4]
        cores[3].core.remote_update(1, write(1, "as")[3])
        cores[3].core.remote_update(2, write(2, "bs")[3])
        s1 = write(3, "s")[4]  # depends on a1 and b1

        policy = _CountingPolicy(graph, 4)
        receiver = _Harness(4, graph, policy, emit_applied=True)
        receiver.core.remote_update(3, s1)
        assert receiver.core.blocked_on() == {3: ((1, 4), 0, 1)}
        receiver.core.remote_batch(1, [a1])
        assert policy.run_hits == 1  # folded past the buffered s1
        assert receiver.core.blocked_on() == {3: ((2, 4), 0, 1)}
        receiver.core.remote_update(2, b1)
        assert receiver.applied_uids() == [a1.uid, b1.uid, s1.uid]
        assert receiver.core.pending_count == 0

    def test_run_fold_reexamines_its_own_sender(self):
        """A sender's third update is buffered ahead of its first two, so
        the sender waits for a sequence number and is filed nowhere.  The
        frame carrying the first two folds past it (the ``blocked_many``
        proof holds: the third also needs a third party's write).  The
        fold must look at the sender again, as any apply does: its third
        update is now the expected one and has to be filed under the
        third party's counter, or that write's arrival wakes nobody."""
        graph = ShareGraph(
            {
                1: {"a", "as"},
                2: {"b", "bs"},
                3: {"s", "as", "bs"},
                4: {"a", "b", "s"},
            }
        )
        cores = {
            r: _Harness(r, graph, EdgeIndexedPolicy(graph, r)) for r in (2, 3)
        }

        def write(rid, register):
            cores[rid].core.local_write(register, register)
            sends = [e for e in cores[rid].effects if isinstance(e, Send)]
            del cores[rid].effects[:]
            return {e.dst: e.update for e in sends}

        s1 = write(3, "s")[4]
        s2 = write(3, "s")[4]
        b1 = write(2, "b")[4]
        cores[3].core.remote_update(2, write(2, "bs")[3])
        s3 = write(3, "s")[4]  # depends on b1

        policy = _CountingPolicy(graph, 4)
        receiver = _Harness(4, graph, policy, emit_applied=True)
        receiver.core.remote_update(3, s3)
        assert receiver.core.queue_stats().blocked_senders == 0
        assert receiver.core.blocked_on() == {3: ((3, 4), 0, 2)}
        receiver.core.remote_batch(3, [s1, s2])
        assert policy.run_hits == 1  # folded past the buffered s3
        assert receiver.core.queue_stats().blocked_senders == 1
        assert receiver.core.blocked_on() == {3: ((2, 4), 0, 1)}
        receiver.core.remote_update(2, b1)
        assert receiver.applied_uids() == [s1.uid, s2.uid, b1.uid, s3.uid]
        assert receiver.core.pending_count == 0


class TestFrameKernelSelection:
    """The policy picks the lane fold per frame from what it is handed:
    one shared index of ``LANE_MIN_WIDTH`` counters or more, nothing a
    caller sets and nothing about the frame's length.  Every replica of
    a clique tracks every edge, so a 9-clique's 72 counters fold and an
    8-clique's 56 do not."""

    def _deliver(self, graph, count, frame_size):
        updates = _issue_run(graph, count, register="x0")
        seq, bat = _receiver_pair(graph, _CountingPolicy)
        for u in updates:
            seq.core.remote_update(1, u)
        for start in range(0, count, frame_size):
            bat.core.remote_batch(1, updates[start : start + frame_size])
        _assert_same_outcome(seq, bat)
        assert bat.core.metrics.applied_remote == count
        return bat.core.policy

    def test_wide_multi_member_frame_folds(self):
        graph = ShareGraph(clique_placements(9))
        for frame_size in (1, 20):
            policy = self._deliver(graph, 40, frame_size)
            assert len(policy.edges) == 72
            assert policy.run_hits == 40 // frame_size

    @pytest.mark.parametrize("frame_size", [1, 20], ids=["one-member", "long"])
    def test_narrow_frame_builds_no_lanes(self, monkeypatch, frame_size):
        graph = ShareGraph(clique_placements(8))
        eindex = EdgeIndexedPolicy(graph, 2)._eindex
        # Interned for the process: a forcing test may have been here.
        monkeypatch.setattr(eindex, "_lanes", None)
        policy = self._deliver(graph, 40, frame_size)
        assert len(policy.edges) == 56
        assert policy.run_hits == 0
        assert eindex._lanes is None and policy._incoming_mask is None


def test_default_and_narrow_batched_runs_never_import_numpy():
    """What keeps ``peak_rss_mb`` and the sparse workloads where they
    are: with or without batch frames, however wide the timestamps, a
    whole run leaves numpy unimported (nothing in ``src/`` names it; the
    wide batched case is what used to load it)."""
    script = """
import sys
from repro import DSMSystem
from repro.workloads import (
    clique_placements, random_placements, run_workload, uniform_writes,
)

for placements, kwargs in (
    (random_placements(12, 30, 5, seed=11), {}),
    (clique_placements(8), {"batch_window": 0.25}),
    (random_placements(24, 80, 10, seed=11), {"batch_window": 4.0}),
):
    system = DSMSystem(placements, seed=7, **kwargs)
    run_workload(system, uniform_writes(system.graph, 200, rate=40.0, seed=13))
    assert system.check().ok
assert "numpy" not in sys.modules, "numpy imported"
"""
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120)


# ----------------------------------------------------------------------
# Simulated systems: flush windows, differentials, config guards
# ----------------------------------------------------------------------
class TestSimulatedSystems:
    def _run(self, **kwargs):
        system = DSMSystem(fig5_placements(), seed=4, **kwargs)
        stream = uniform_writes(system.graph, 80, seed=9)
        run_workload(system, stream)
        return system

    def test_window_converges_with_fewer_messages(self):
        plain = self._run()
        batched = self._run(batch_window=1.0)
        assert plain.check().ok
        assert batched.check().ok
        mp, mb = plain.metrics(), batched.metrics()
        assert mb.applied_remote == mp.applied_remote
        assert mb.messages_sent < mp.messages_sent
        for rid in plain.graph.replicas:
            for reg in sorted(plain.graph.registers_at(rid), key=str):
                assert plain.client(rid).read(reg) == batched.client(rid).read(
                    reg
                )

    def test_vectorized_batched_run_is_byte_identical_to_scalar(
        self, force_lane_merge, monkeypatch
    ):
        folds = []
        kernel = EdgeIndexedPolicy.merge_run

        def spy(*args):
            folds.append(kernel(*args))
            return folds[-1]

        monkeypatch.setattr(EdgeIndexedPolicy, "merge_run", spy)

        def run(lanes):
            force_lane_merge(lanes)
            placements = random_placements(8, 24, 4, seed=21)
            system = DSMSystem(placements, seed=7, batch_window=2.0)
            stream = uniform_writes(system.graph, 150, seed=3)
            run_workload(system, stream)
            assert system.check().ok
            stores = {
                rid: dict(system.replica(rid).store)
                for rid in system.graph.replicas
            }
            stamps = {
                rid: (
                    system.replica(rid).timestamp,
                    timestamp_wire_bytes(system.replica(rid).timestamp),
                )
                for rid in system.graph.replicas
            }
            events = [
                (e.kind, e.replica, e.uid, round(e.time, 9))
                for e in system.history.events
            ]
            return stores, stamps, events

        scalar = run(False)
        assert folds and not any(folds)
        assert scalar == run(True)
        assert any(fold is not None for fold in folds)

    def test_batch_window_requires_reliable_channels(self):
        with pytest.raises(ConfigurationError):
            DSMSystem(fig5_placements(), batch_window=1.0, fault_plan=FaultPlan())
        with pytest.raises(ConfigurationError):
            ClientServerSystem(
                {1: {"x"}, 2: {"y"}, 3: {"x", "z"}, 4: {"y", "z"}},
                {"cA": {1, 2}, "cB": {3, 4}},
                batch_window=1.0,
                fault_plan=FaultPlan(),
            )

    def test_clientserver_batched_run_checks(self):
        system = ClientServerSystem(
            {1: {"x"}, 2: {"y"}, 3: {"x", "z"}, 4: {"y", "z"}},
            {"cA": {1, 2}, "cB": {3, 4}},
            seed=6,
            batch_window=0.5,
        )
        system.client("cA").enqueue_write("x", 1)
        system.client("cA").enqueue_write("y", 2)
        system.client("cB").enqueue_write("z", 3)
        system.client("cB").enqueue_write("x", 4)
        system.client("cB").enqueue_read("x")
        system.run()
        assert system.all_clients_done()
        result = system.check()
        assert result.ok, str(result)


# ----------------------------------------------------------------------
# TCP runtime: commit-coalesced frames and the pipelined client
# ----------------------------------------------------------------------
class TestTcpBatched:
    PLACEMENTS = {"a": {"x", "y"}, "b": {"x", "z"}, "c": {"y", "z"}}

    def test_batched_cluster_converges(self, tmp_path):
        from repro.tcp import TcpCluster

        async def scenario():
            async with TcpCluster(self.PLACEMENTS, str(tmp_path)) as cluster:
                for n in range(8):
                    await cluster.replica("a").write("x", f"x{n}")
                await cluster.replica("b").write("z", "vz")
                await cluster.settle(timeout=15)
                stores = cluster.stores()
                assert stores["a"]["x"] == "x7"
                assert stores["b"] == {"x": "x7", "z": "vz"}
                assert stores["c"]["z"] == "vz"

        asyncio.run(scenario())

    def test_pipelined_client_window(self, tmp_path):
        from repro.tcp import TcpCluster
        from repro.tcp.client import ClusterClient

        async def scenario():
            async with TcpCluster(self.PLACEMENTS, str(tmp_path)) as cluster:
                client = ClusterClient(
                    "pipe", cluster.addresses, op_timeout=5.0
                )
                with pytest.raises(ValueError):
                    await client.write_pipelined([("x", 1)], ["a"], window=0)
                ops = [("x", f"p{n}") for n in range(12)]
                results = await client.write_pipelined(ops, ["a"], window=4)
                assert len(results) == 12
                uids = [r.uid for r in results]
                assert all(uids)
                assert len(set(uids)) == 12  # no op double-executed
                await client.close()
                await cluster.settle(timeout=15)
                stores = cluster.stores()
                assert stores["a"]["x"] == "p11"
                assert stores["b"]["x"] == "p11"

        asyncio.run(scenario())
