"""The one adapter skeleton, exercised through each runtime's subclass.

Every runtime adapter is a :class:`~repro.core.engine.CoreAdapter`; what
they share -- the effect dispatcher, the batch window, the history
fan-out, the inbound demux, the gating flags -- is tested here once and
run per class, with the two runtime primitives (``_transmit``,
``_call_later``) replaced by recording fakes so no transport, simulator
step or event loop is involved.
"""

from __future__ import annotations

from typing import get_args

import pytest

from repro.clientserver.protocol import CSReplica
from repro.core.causality import History
from repro.core.engine import (
    Applied,
    CoreAdapter,
    Effect,
    RecordHistory,
    Send,
    SendStabilize,
    StabilizeFrame,
    UpdateBatch,
)
from repro.core.replica import Replica
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import EdgeIndexedPolicy, Timestamp
from repro.core.timestamp_graph import all_timestamp_graphs
from repro.errors import ProtocolError
from repro.network.transport import Network
from repro.sim.kernel import Simulator
from repro.tcp.framing import FrameType, decode_frame
from repro.tcp.runtime import TcpReplicaServer
from repro.types import Update, UpdateId
from repro.wire.codec import decode_stabilize_frame

TRIANGLE = {1: {"x", "y"}, 2: {"x", "z"}, 3: {"y", "z"}}
RUNTIMES = ["sim", "cs", "tcp"]
WINDOWED = ["sim", "cs"]  # tcp stages wire bytes, not objects


class Fakes:
    """Recording stand-ins for the two primitives a runtime supplies."""

    def __init__(self, adapter):
        self.frames = []  # (dst, message, metadata_counters, wire_bytes)
        self.timers = []  # (delay, fn)
        adapter._transmit = lambda *frame: self.frames.append(frame)
        adapter._call_later = lambda delay, fn: (
            self.timers.append((delay, fn)) or object()
        )

    def fire(self):
        _, fn = self.timers[-1]
        fn()


def make_adapter(
    runtime, tmp_path, replica_id=1, history=None, batch_window=0.0, batch_max=64
):
    graph = ShareGraph(TRIANGLE)
    edges = all_timestamp_graphs(graph)[replica_id].edges
    if runtime == "sim":
        adapter = Replica(
            replica_id,
            graph,
            EdgeIndexedPolicy(graph, replica_id, edges=edges),
            Network(Simulator(seed=0)),
            history=history,
            batch_window=batch_window,
            batch_max=batch_max,
        )
    elif runtime == "cs":
        adapter = CSReplica(
            replica_id,
            graph,
            edges,
            Network(Simulator(seed=0)),
            history=history,
            batch_window=batch_window,
            batch_max=batch_max,
        )
    else:
        adapter = TcpReplicaServer(
            replica_id, graph, {}, wal_path=str(tmp_path / "r.wal")
        )
    return adapter, Fakes(adapter)


def update(seq, dst=2):
    return Update(UpdateId(1, seq), "x", seq, Timestamp({(1, dst): seq}))


def send(seq, dst=2):
    return Send(dst, update(seq, dst), 4, 10)


# ----------------------------------------------------------------------
# Effect dispatch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_every_effect_has_a_handler(runtime, tmp_path):
    adapter, fakes = make_adapter(runtime, tmp_path, history=History())
    assert isinstance(adapter, CoreAdapter)
    # Send and RecordHistory (into the attached History; the TCP runtime
    # installs its WAL handler instead) are the dispatcher's inline arms;
    # the table covers the rest of the union.
    inline = {Send} if runtime == "tcp" else {Send, RecordHistory}
    assert inline | set(adapter._handlers) == set(get_args(Effect))
    assert inline.isdisjoint(adapter._handlers)
    for handler in adapter._handlers.values():
        assert handler.__self__ is adapter
    adapter._on_effect(send(1))
    ((dst, message, counters, wire),) = fakes.frames
    assert (dst, message.uid, counters, wire) == (2, UpdateId(1, 1), 4, 10)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_unknown_effect_raises(runtime, tmp_path):
    adapter, _ = make_adapter(runtime, tmp_path)
    with pytest.raises(ProtocolError):
        adapter._on_effect(object())


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_applied_is_gated_on_the_installed_hook(runtime, tmp_path):
    adapter, _ = make_adapter(runtime, tmp_path)
    assert adapter.core.emit_applied is False
    seen = []
    adapter.on_apply = lambda rep, src, upd: seen.append((rep, src, upd.uid))
    assert adapter.core.emit_applied is True
    adapter._on_effect(Applied(2, update(1), 0.0))
    assert seen == [(adapter, 2, UpdateId(1, 1))]
    adapter.on_apply = None
    assert adapter.core.emit_applied is False


@pytest.mark.parametrize("runtime", WINDOWED)
def test_record_history_fans_out_to_the_history(runtime, tmp_path):
    assert make_adapter(runtime, tmp_path)[0].core.record_history is False
    history = History()
    adapter, _ = make_adapter(runtime, tmp_path, replica_id=2, history=history)
    assert adapter.core.record_history is True
    theirs, ours = UpdateId(1, 1), UpdateId(2, 1)
    history.record_issue(1, theirs, "x", 0.0)
    adapter._on_effect(RecordHistory("issue", ours, "x", 1.0, "client-a"))
    adapter._on_effect(RecordHistory("apply", theirs, "x", 2.0))
    adapter._on_effect(RecordHistory("visible", theirs, "x", 3.0))
    assert [(e.kind, e.replica, e.uid, e.time) for e in history.events] == [
        ("issue", 1, theirs, 0.0),
        ("issue", 2, ours, 1.0),
        ("apply", 2, theirs, 2.0),
        ("visible", 2, theirs, 3.0),
    ]


# ----------------------------------------------------------------------
# Send-side batch window
# ----------------------------------------------------------------------
@pytest.mark.parametrize("runtime", WINDOWED)
def test_one_window_yields_one_frame_per_destination(runtime, tmp_path):
    adapter, fakes = make_adapter(
        runtime, tmp_path, batch_window=0.5, batch_max=8
    )
    for eff in (send(1, dst=3), send(1, dst=2), send(2, dst=3)):
        adapter._on_effect(eff)
    assert fakes.frames == [] and adapter.outbox_pending == 3
    assert [delay for delay, _ in fakes.timers] == [0.5]  # armed once
    fakes.fire()
    assert adapter.outbox_pending == 0
    assert [(dst, type(m), len(m)) for dst, m, _, _ in fakes.frames] == [
        (3, UpdateBatch, 2),  # insertion order, not destination order
        (2, UpdateBatch, 1),
    ]
    # Accounting is the sum over members, as on the unbatched path.
    assert [(c, w) for _, _, c, w in fakes.frames] == [(8, 20), (4, 10)]
    # A second window re-arms the timer.
    adapter._on_effect(send(2, dst=2))
    assert len(fakes.timers) == 2
    fakes.fire()
    assert len(fakes.frames) == 3 and adapter.outbox_pending == 0


@pytest.mark.parametrize("runtime", WINDOWED)
def test_batch_max_flushes_that_destination_eagerly(runtime, tmp_path):
    adapter, fakes = make_adapter(
        runtime, tmp_path, batch_window=0.5, batch_max=3
    )
    adapter._on_effect(send(1, dst=3))
    for seq in (1, 2):
        adapter._on_effect(send(seq, dst=2))
    assert fakes.frames == []
    adapter._on_effect(send(3, dst=2))  # the batch_max-th Send to 2
    ((dst, frame, _, _),) = fakes.frames
    assert dst == 2 and [u.uid.seq for u in frame.updates] == [1, 2, 3]
    assert adapter.outbox_pending == 1  # destination 3 still buffered
    assert len(fakes.timers) == 1


@pytest.mark.parametrize("runtime", WINDOWED)
def test_send_stabilize_bypasses_the_window(runtime, tmp_path):
    adapter, fakes = make_adapter(runtime, tmp_path, batch_window=0.5)
    adapter._on_effect(send(1))
    frame = StabilizeFrame(1, 7, ((1, 7), (2, 3)), sent=1)
    adapter._on_effect(SendStabilize(2, frame, 9))
    assert fakes.frames == [(2, frame, 4, 9)]  # 2 entries + clock + sent
    assert adapter.outbox_pending == 1


# ----------------------------------------------------------------------
# Inbound demux
# ----------------------------------------------------------------------
@pytest.mark.parametrize("runtime", WINDOWED)
def test_deliver_demuxes_updates_batches_and_rejects_junk(runtime, tmp_path):
    adapter, _ = make_adapter(runtime, tmp_path, replica_id=2)
    adapter._deliver(1, update(1))
    assert adapter.store["x"] == 1
    adapter._deliver(1, UpdateBatch(2, (update(2), update(3))))
    assert adapter.store["x"] == 3 and adapter.core.pending_count == 0
    assert adapter.metrics.applied_remote == 3
    with pytest.raises(ProtocolError):
        adapter._deliver(1, "not a protocol message")


# ----------------------------------------------------------------------
# TCP: the handlers where its transport differs
# ----------------------------------------------------------------------
def test_tcp_ships_send_stabilize_as_the_heartbeat_frame(tmp_path):
    """An explicit round sends what a heartbeat would have piggybacked:
    the receiver's existing HEARTBEAT path decodes it back."""
    adapter, _ = make_adapter("tcp", tmp_path)
    sent = []
    adapter.links[2].send_bytes = sent.append
    frame = StabilizeFrame(1, 7, ((1, 7), (2, 3)), sent=1)
    adapter._on_effect(SendStabilize(2, frame, 0))
    (raw,) = sent
    wire = decode_frame(raw[4:])  # past the length prefix
    assert wire.type is FrameType.HEARTBEAT
    names = {str(r): r for r in adapter.graph.replicas}
    assert decode_stabilize_frame(wire.payload, 1, names) == frame
