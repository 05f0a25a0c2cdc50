"""The pre-engine edge-indexed policy and delivery loop, kept as oracles.

:class:`LegacyEdgeIndexedPolicy` is the original dictionary-walking
implementation of the Section 3.3 algorithm, kept verbatim: ``advance``
re-derives the bump set from the share graph on every write, ``merge``
walks every edge of ``E_i`` through tolerant ``get`` reads, and ``J``
re-resolves the sender edge each call.  It exercises none of the
precomputed position plans of :class:`~repro.core.timestamp.EdgeIndexedPolicy`
and exposes no :meth:`blocking_edge` hook, so a replica running it also
falls back to the conservative wake-everything delivery path.

:class:`LegacyReplicaCore` is the prototype's original flat-``pending``
delivery loop.  The differential tests drive the same seeded trace
through these and the engine and assert byte-identical histories,
timestamps, and checker verdicts -- the regression guard that the
performance engine is a pure optimization.  Nothing here is shared with
the code under test except the value types.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.share_graph import ShareGraph
from repro.core.timestamp import Timestamp
from repro.core.timestamp_graph import timestamp_graph
from repro.errors import ConfigurationError
from repro.types import Edge, RegisterName, ReplicaId


class LegacyEdgeIndexedPolicy:
    """The paper's algorithm via the original per-call dictionary walks."""

    def __init__(
        self,
        graph: ShareGraph,
        replica_id: ReplicaId,
        edges=None,
        max_loop_len: Optional[int] = None,
    ) -> None:
        if replica_id not in graph:
            raise ConfigurationError(f"replica {replica_id!r} not in share graph")
        self.graph = graph
        self.replica_id = replica_id
        if edges is None:
            tg = timestamp_graph(graph, replica_id, max_loop_len=max_loop_len)
            self.edges = tg.edges
        else:
            self.edges = frozenset(edges)
        self._incoming = tuple(sorted(
            ((n, replica_id) for n in graph.neighbors(replica_id)),
            key=lambda e: (str(e[0]), str(e[1])),
        ))

    def initial(self) -> Timestamp:
        return Timestamp.zeros(self.edges)

    def advance(self, ts: Timestamp, register: RegisterName) -> Timestamp:
        i = self.replica_id
        changes: Dict[Edge, int] = {}
        for e in self.edges:
            j, k = e
            if j == i and register in self.graph.shared(i, k):
                changes[e] = ts[e] + 1
        return ts.replace(changes)

    def merge(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> Timestamp:
        changes: Dict[Edge, int] = {}
        for e in self.edges:
            other = sender_ts.get(e)
            if other is not None and other > ts[e]:
                changes[e] = other
        return ts.replace(changes)

    def ready(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> bool:
        i = self.replica_id
        e_ki = (sender, i)
        own = ts.get(e_ki)
        incoming = sender_ts.get(e_ki)
        if own is None or incoming is None:
            pass
        elif own != incoming - 1:
            return False
        for e in self._incoming:
            if e[0] == sender:
                continue
            other = sender_ts.get(e)
            if other is not None and ts[e] < other:
                return False
        return True

    def counters(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return (
            f"LegacyEdgeIndexedPolicy(replica={self.replica_id!r}, "
            f"|E_i|={len(self.edges)})"
        )


def legacy_policy_factory(graph: ShareGraph, replica_id: ReplicaId):
    """Drop-in ``policy_factory`` for :class:`~repro.core.system.DSMSystem`."""
    return LegacyEdgeIndexedPolicy(graph, replica_id)


class LegacyReplicaCore:
    """The prototype's original delivery loop, kept as an oracle.

    This is the pre-engine shape every runtime once contained: one flat
    ``pending`` list and a restart-from-zero rescan after every apply --
    O(pending^2) per delivery, but indisputably the Section 2.1
    pseudocode.  The engine differential tests drive identical event
    sequences through this and :class:`~repro.core.engine.ProtocolCore`
    and assert identical apply orders, stores, and timestamps.

    Deliberately I/O-free and feature-free (no metrics, no backpressure,
    no history): ``local_write`` returns the updates to "send" and
    ``remote_update`` returns the ``(sender, update)`` pairs applied, in
    order.
    """

    def __init__(self, replica_id: ReplicaId, graph: ShareGraph, policy) -> None:
        self.replica_id = replica_id
        self.graph = graph
        self.policy = policy
        self.store: Dict[RegisterName, object] = {
            x: None for x in graph.registers_at(replica_id)
        }
        self.timestamp = policy.initial()
        self.pending = []
        self.seq = 0

    def read(self, register: RegisterName):
        return self.store[register]

    def local_write(self, register: RegisterName, value):
        from repro.types import Update, UpdateId

        self.seq += 1
        uid = UpdateId(self.replica_id, self.seq)
        self.store[register] = value
        self.timestamp = self.policy.advance(self.timestamp, register)
        return [
            (k, Update(uid, register, value, self.timestamp))
            for k in self.graph.recipients(self.replica_id, register)
        ]

    def remote_update(self, src: ReplicaId, update) -> list:
        self.pending.append((src, update))
        return self._drain()

    def _drain(self) -> list:
        applied = []
        progress = True
        while progress:
            progress = False
            for index, (sender, update) in enumerate(self.pending):
                if self.policy.ready(self.timestamp, sender, update.timestamp):
                    del self.pending[index]
                    self.store[update.register] = update.value
                    self.timestamp = self.policy.merge(
                        self.timestamp, sender, update.timestamp
                    )
                    applied.append((sender, update))
                    progress = True
                    break
        return applied
