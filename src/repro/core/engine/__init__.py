"""The sans-I/O protocol core: one delivery engine for every runtime.

This package is the Section 2.1 algorithm prototype as a *pure state
machine*: :class:`ProtocolCore` owns the store, the timestamp engine, the
per-sender delivery queues with their readiness wake-sets, the value-debt
ledger, and the pending-cap/gap backpressure -- and it performs no I/O.
Inputs arrive as direct method calls (``local_write``, ``remote_update``,
``remote_batch``, ``receive_stabilize``, ``install_sync``, ``tick``);
everything the outside world must do in response is emitted as a typed
effect (:mod:`repro.core.engine.effects`) through a callback the adapter
supplies.

The simulator (:class:`repro.core.replica.Replica`), client-server
(:class:`repro.clientserver.protocol.CSReplica`) and TCP
(:class:`repro.tcp.runtime.TcpReplicaServer`) runtimes are subclasses of
one skeleton, :class:`CoreAdapter`, which owns the effect dispatcher,
the send-side batch window, the history fan-out and the inbound demux;
they supply a transport and never reimplement delivery.
"""

from repro.core.engine.batching import BatchAccumulator, UpdateBatch
from repro.core.engine.core import ProtocolCore
from repro.core.engine.effects import (
    Applied,
    ConfirmApplied,
    Effect,
    EscalateSync,
    RecordHistory,
    RollbackChannels,
    Send,
    SendStabilize,
)
from repro.core.engine.metrics import QueueStats, ReplicaMetrics
from repro.core.engine.stabilization import StabilizationState, StabilizeFrame
from repro.core.engine.adapter import CoreAdapter

__all__ = [
    "Applied",
    "BatchAccumulator",
    "ConfirmApplied",
    "CoreAdapter",
    "Effect",
    "EscalateSync",
    "ProtocolCore",
    "QueueStats",
    "RecordHistory",
    "ReplicaMetrics",
    "RollbackChannels",
    "Send",
    "SendStabilize",
    "StabilizationState",
    "StabilizeFrame",
    "UpdateBatch",
]
