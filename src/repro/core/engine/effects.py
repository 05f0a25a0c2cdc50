"""Typed output effects of the sans-I/O protocol core.

The core never touches a transport, a simulator, or a history log; every
externally visible consequence of an event is emitted as one of these
effect objects through the adapter's ``emit`` callback, *synchronously at
the exact point* the action must happen.  Streaming (rather than
returning a batch) matters: an adapter's ``Applied`` handler may legally
re-enter the core (the Appendix D virtual-register hook issues follow-up
writes mid-drain), and the interleaving of sends, history records, and
hook invocations is part of the byte-identical trace contract the
differential tests pin.

Effects the adapter has no consumer for are simply skipped -- and the
allocation itself is skipped when the corresponding ``ProtocolCore``
flag (``record_history``, ``emit_applied``, ``emit_confirm``) is off, so
runtimes only pay for the effects they use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.types import RegisterName, ReplicaId, Update, UpdateId


@dataclass(slots=True)
class Send:
    """Transmit ``update`` to replica ``dst``.

    ``metadata_counters`` and ``wire_bytes`` are the metadata accounting
    the simulator transport records; adapters without that accounting
    ignore them.
    """

    dst: ReplicaId
    update: Update
    metadata_counters: int
    wire_bytes: int


@dataclass(slots=True)
class RecordHistory:
    """Append one event to the global issue/apply log.

    ``kind`` is ``"issue"``, ``"apply"``, or ``"visible"`` (a stabilizing
    policy's visibility cut passed this update); ``client`` attributes a
    client-server issue to its session.
    """

    kind: str
    uid: UpdateId
    register: RegisterName
    time: float
    client: Optional[object] = None


@dataclass(slots=True)
class SendStabilize:
    """Transmit a stabilization frame to share-graph neighbour ``dst``.

    Emitted only by stabilizing (GST) policies during a
    :meth:`~repro.core.engine.core.ProtocolCore.stabilize` round.
    ``wire_bytes`` is the encoded frame size for transport accounting.
    """

    dst: ReplicaId
    frame: Any
    wire_bytes: int


@dataclass(slots=True)
class ConfirmApplied:
    """Tell the reliable transport ``update`` from ``src`` is durable."""

    src: ReplicaId
    update: Update


@dataclass(slots=True)
class Applied:
    """An update was applied (the adapter's post-apply hook point)."""

    src: ReplicaId
    update: Update
    arrived: float


@dataclass(slots=True)
class EscalateSync:
    """Ask the anti-entropy layer for a state transfer.

    ``reason`` is ``"overflow"`` (pending cap reached, buffer shed) or
    ``"gap"`` (a sender ran ``gap_threshold`` ahead of the frontier).
    """

    reason: str


@dataclass(slots=True)
class RollbackChannels:
    """``shed`` buffered updates were dropped; roll volatile channel
    state back so the senders' retransmissions re-deliver them."""

    shed: int


Effect = Union[
    Send,
    SendStabilize,
    RecordHistory,
    ConfirmApplied,
    Applied,
    EscalateSync,
    RollbackChannels,
]

#: The adapter-supplied effect sink.
Emit = Callable[[Effect], Any]
