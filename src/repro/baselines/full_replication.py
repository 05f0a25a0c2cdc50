"""Classic vector clocks for full replication (Lazy Replication style).

With full replication every update is multicast to every other replica, so
a vector timestamp of length ``R`` (one counter per replica) suffices
[Ladin et al. 1992].  Sections 1 and 4 use this as the reference point:
the paper's edge-indexed algorithm must collapse to the same overhead
under full replication (after compression), and the ``m^R`` lower bound of
Theorem 15 is met by these timestamps.

The policy is only safe when the share graph is fully replicated --
otherwise some replica would miss updates whose counters it gates on.  The
constructor enforces this.
"""

from __future__ import annotations

from typing import Dict

from repro.core.share_graph import ShareGraph
from repro.core.timestamp import Timestamp
from repro.errors import ConfigurationError
from repro.types import RegisterName, ReplicaId


class VectorClockPolicy:
    """Replica-indexed vector timestamps for fully replicated systems.

    The timestamp's keys are replica ids rather than edges; the delivery
    predicate is the classic causal-multicast condition:
    ``T[sender] == tau[sender] + 1`` and ``T[j] <= tau[j]`` for all other
    ``j``.
    """

    def __init__(
        self,
        graph: ShareGraph,
        replica_id: ReplicaId,
        require_full_replication: bool = True,
    ) -> None:
        if replica_id not in graph:
            raise ConfigurationError(f"replica {replica_id!r} not in share graph")
        if require_full_replication and not graph.is_full_replication():
            raise ConfigurationError(
                "VectorClockPolicy requires full replication; use the "
                "edge-indexed algorithm (or dummy-register emulation) for "
                "partial replication"
            )
        self.graph = graph
        self.replica_id = replica_id
        self._keys = tuple(graph.replicas)

    def initial(self) -> Timestamp:
        return Timestamp.zeros(self._keys)

    def advance(self, ts: Timestamp, register: RegisterName) -> Timestamp:
        return ts.replace({self.replica_id: ts[self.replica_id] + 1})

    def merge(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> Timestamp:
        changes: Dict[ReplicaId, int] = {}
        for key in self._keys:
            other = sender_ts.get(key)
            if other is not None and other > ts[key]:
                changes[key] = other
        return ts.replace(changes)

    def ready(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> bool:
        if sender_ts[sender] != ts[sender] + 1:
            return False
        return all(
            sender_ts[j] <= ts[j] for j in self._keys if j != sender
        )

    def blocking_edge(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> ReplicaId:
        """The entry the first false conjunct reads (``sender``'s own
        when the update is not its exact next one)."""
        if sender_ts[sender] != ts[sender] + 1:
            return sender
        return next(
            j for j in self._keys if j != sender and sender_ts[j] > ts[j]
        )

    # The predicate accepts only the sender's exact-next update
    # (``T[sender] == tau[sender] + 1``), like the edge-indexed J.
    exact_sender_fifo = True

    # Policy-layer identification.
    policy_tag = "vc"
    stabilizing = False

    def sender_seq(self, sender: ReplicaId, sender_ts: Timestamp):
        return sender_ts.get(sender)

    def next_seq(self, ts: Timestamp, sender: ReplicaId):
        own = ts.get(sender)
        return None if own is None else own + 1

    def counters(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return f"VectorClockPolicy(replica={self.replica_id!r}, R={len(self._keys)})"
