"""Where the spans go, and how span totals become per-layer metrics.

``install`` wraps the public callables at each layer boundary.  It must
run before the system under test is constructed: ``ProtocolCore``
captures bound policy methods in its constructor and the simulator's
network stores bound ``on_message`` handlers, so instances built earlier
keep the unwrapped functions.

Span names are ``<module>.<callable>``; a per-layer time metric sums the
self times of the spans listed for it in :data:`TIME_METRICS` and
divides by the client writes made while the tracer was recording.
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict, Mapping, Tuple

from .trace import Tracer


def _result_len(args, result) -> int:
    return len(result)


def _sent_len(args, result) -> int:
    return len(args[1])  # PeerLink.send_bytes(self, data)


def install(tracer: Tracer) -> None:
    """Wrap every traced callable of ``repro`` (undo: ``unwrap_all``)."""
    # Importing the packages first loads every module that binds the
    # traced functions by ``from ... import``.  Modules are fetched by
    # full name: ``repro.core`` re-exports a *function* called
    # ``timestamp_graph`` that hides the submodule attribute.
    for package in ("repro.checker", "repro.harness.process_chaos", "repro.tcp"):
        import_module(package)
    timestamp_graph = import_module("repro.core.timestamp_graph")
    timestamp = import_module("repro.core.timestamp")
    causality = import_module("repro.core.causality")
    replica = import_module("repro.core.replica")
    engine = import_module("repro.core.engine.core")
    transport = import_module("repro.network.transport")
    kernel = import_module("repro.sim.kernel")
    codec = import_module("repro.wire.codec")
    framing = import_module("repro.tcp.framing")
    wal = import_module("repro.tcp.wal")
    runtime = import_module("repro.tcp.runtime")
    client = import_module("repro.tcp.client")

    fn, method = tracer.wrap_function, tracer.wrap_method
    fn(timestamp_graph, "all_timestamp_graphs", "core.timestamp_graph.build")
    policy = timestamp.EdgeIndexedPolicy
    method(policy, "__init__", "core.timestamp.compile")
    method(policy, "advance", "core.timestamp.advance")
    method(policy, "advance_delta", "core.timestamp.advance_delta")
    method(policy, "merge", "core.timestamp.merge")
    method(policy, "merge_delta", "core.timestamp.merge_delta")
    method(policy, "ready", "core.timestamp.ready")
    method(engine.ProtocolCore, "local_write", "core.engine.local_write")
    method(engine.ProtocolCore, "remote_update", "core.engine.remote_update")
    method(engine.ProtocolCore, "remote_batch", "core.engine.remote_batch")
    method(replica.Replica, "write", "core.replica.write")
    method(replica.Replica, "on_message", "core.replica.on_message")
    method(causality.History, "record_issue", "core.causality.record_issue")
    method(causality.History, "record_apply", "core.causality.record_apply")
    method(transport.Network, "send", "network.send")
    method(kernel.Simulator, "step", "sim.step")
    fn(codec, "encode_update", "wire.encode_update", units=_result_len)
    fn(codec, "decode_update", "wire.decode_update")
    fn(framing, "json_frame", "tcp.framing.json_frame")
    fn(framing, "encode_frame", "tcp.framing.encode_frame")
    fn(framing, "decode_frame", "tcp.framing.decode_frame")
    method(framing.Frame, "json", "tcp.framing.json")
    log = wal.WriteAheadLog
    method(log, "append_issue", "tcp.wal.append_issue")
    method(log, "append_apply", "tcp.wal.append_apply")
    method(log, "flush", "tcp.wal.flush")
    fn(wal, "recover_wal", "tcp.wal.recover_wal")
    method(
        runtime.PeerLink, "send_bytes", "tcp.runtime.send_bytes",
        units=_sent_len,
    )
    method(runtime.TcpReplicaServer, "start", "tcp.runtime.start")
    method(client.ClusterClient, "write", "tcp.client.write")
    method(client.ClusterClient, "read", "tcp.client.read")
    method(client.ClusterClient, "write_pipelined", "tcp.client.write_pipelined")


#: metric -> spans whose self time it sums (µs per client write).
TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "core.timestamp.advance_us_per_write": (
        "core.timestamp.advance", "core.timestamp.advance_delta",
    ),
    "core.timestamp.merge_us_per_write": (
        "core.timestamp.merge", "core.timestamp.merge_delta",
    ),
    "core.timestamp.ready_us_per_write": ("core.timestamp.ready",),
    "core.engine.local_write_us_per_write": ("core.engine.local_write",),
    "core.engine.remote_us_per_write": (
        "core.engine.remote_update", "core.engine.remote_batch",
    ),
    "core.replica.write_us_per_write": ("core.replica.write",),
    "core.replica.on_message_us_per_write": ("core.replica.on_message",),
    "core.causality.record_us_per_write": (
        "core.causality.record_issue", "core.causality.record_apply",
    ),
    "network.send_us_per_write": ("network.send",),
    "sim.step_us_per_write": ("sim.step",),
    "wire.encode_us_per_write": ("wire.encode_update",),
    "wire.decode_us_per_write": ("wire.decode_update",),
    "tcp.framing.encode_us_per_write": (
        "tcp.framing.json_frame", "tcp.framing.encode_frame",
    ),
    "tcp.framing.decode_us_per_write": (
        "tcp.framing.decode_frame", "tcp.framing.json",
    ),
    "tcp.wal.append_us_per_write": (
        "tcp.wal.append_issue", "tcp.wal.append_apply",
    ),
    "tcp.wal.flush_us_per_write": ("tcp.wal.flush",),
    "tcp.runtime.send_bytes_us_per_write": ("tcp.runtime.send_bytes",),
    "tcp.client.write_us_per_write": (
        "tcp.client.write", "tcp.client.write_pipelined",
    ),
}

#: Spans that belong to set-up, recovery or the audit, not to the write
#: path: left out of the attributed share of ``bench.cpu_us_per_write``.
OFF_PATH_SPANS = (
    "core.timestamp_graph.build",
    "core.timestamp.compile",
    "tcp.wal.recover_wal",
    "tcp.runtime.start",
    "tcp.client.read",
)


Summary = Mapping[str, Mapping[str, int]]


def calls(summary: Summary, name: str) -> int:
    return summary[name]["calls"] if name in summary else 0


def total_s(summary: Summary, name: str) -> float:
    return summary[name]["total_ns"] / 1e9 if name in summary else 0.0


def attributed_us(summary: Summary) -> float:
    """Self time of every span on the write path, in microseconds."""
    return sum(
        entry["self_ns"]
        for name, entry in summary.items()
        if name not in OFF_PATH_SPANS
    ) / 1e3


def span_metrics(summary: Summary, writes: int) -> Dict[str, float]:
    """Per-layer metrics that come from span totals alone."""
    writes = max(writes, 1)
    out = {
        metric: sum(
            summary[n]["self_ns"] for n in spans if n in summary
        ) / 1e3 / writes
        for metric, spans in TIME_METRICS.items()
    }
    out["tcp.framing.frames_per_write"] = (
        calls(summary, "tcp.framing.encode_frame") / writes
    )
    encodes = calls(summary, "wire.encode_update")
    out["wire.bytes_per_update"] = (
        summary["wire.encode_update"]["units"] / encodes if encodes else 0.0
    )
    sends = summary.get("tcp.runtime.send_bytes", {"calls": 0, "units": 0})
    out["tcp.runtime.peer_frames_per_write"] = sends["calls"] / writes
    out["tcp.runtime.peer_bytes_per_write"] = sends["units"] / writes
    return out
