"""Anti-entropy: causally consistent state transfer for lagging replicas.

The reliable-delivery layer (:mod:`repro.network.faults`) recovers the
paper's exactly-once channels from a lossy physical layer -- but only if
its retransmit logs and the replicas' pending buffers may grow without
bound.  Under long partitions both are bounded in practice, and a replica
that comes back from the far side of an outage (or sheds its buffer under
backpressure) can be arbitrarily far behind.  This package restores
liveness with *state transfer*: a causally consistent snapshot (store +
timestamp + per-sender delivery frontiers) from a caught-up neighbour,
installed atomically, after which normal predicate-J delivery resumes
from the frontier.  See ``docs/recovery.md`` for the safety argument.
"""

from repro.sync.manager import SyncManager, SyncStats
from repro.sync.snapshot import (
    StateSnapshot,
    delivery_frontiers,
    install_set,
    spliced_timestamp,
    value_debts,
)

__all__ = [
    "SyncManager",
    "SyncStats",
    "StateSnapshot",
    "delivery_frontiers",
    "install_set",
    "spliced_timestamp",
    "value_debts",
]
