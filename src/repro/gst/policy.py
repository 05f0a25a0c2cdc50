"""The GST timestamp policy (arXiv:1803.05575) behind the shared engine.

Local state per replica *i* (all held inside the policy's timestamp so
``advance``/``merge`` stay pure functions the engine can drive):

* ``("!clk", i)`` -- the scalar Lamport clock: ``+1`` on every local
  write, max-merged with every received clock;
* ``(i, k)`` per share-graph neighbour ``k`` -- how many updates *i*
  has sent on the channel to ``k`` (the per-channel FIFO sequence);
* ``(k, i)`` per neighbour ``k`` -- how many updates *i* has applied
  from ``k``'s channel (the delivery frontier).

On the wire an update to ``k`` carries only **two** counters -- the
clock and the channel sequence (:meth:`GstPolicy.update_timestamp`) --
which is the metadata economy over edge-indexed vectors.  Delivery is
pure per-channel FIFO (predicate ``J`` accepts exactly the next channel
sequence; no third-party gating), so causal *apply order* is NOT
guaranteed -- causal safety is restored at read time by the engine's
visibility cut (see :mod:`repro.core.engine.stabilization`), which is
why :attr:`GstPolicy.stabilizing` is true.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.edge_index import EdgeIndex
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import Timestamp
from repro.errors import ConfigurationError
from repro.types import Edge, RegisterName, ReplicaId
from repro.wire.codec import canonical_edge_order

#: Sentinel first element of the clock key ``(CLOCK, replica)``.  A
#: string that can never collide with a replica id position in a real
#: edge, because edges are ``(src, dst)`` pairs of share-graph members.
CLOCK = "!clk"


def gst_wire_order(issuer: ReplicaId, dst: ReplicaId) -> Tuple[Edge, ...]:
    """The canonical edge order of a GST wire timestamp on one channel.

    Both endpoints derive it from static configuration (issuer and
    destination ids), exactly like the edge-indexed orders.
    """
    return canonical_edge_order([(CLOCK, issuer), (issuer, dst)])


class GstPolicy:
    """Lamport clock + per-channel FIFO sequences + visibility cut."""

    exact_sender_fifo = True
    policy_tag = "gst"
    stabilizing = True

    def __init__(self, graph: ShareGraph, replica_id: ReplicaId) -> None:
        if replica_id not in graph:
            raise ConfigurationError(
                f"replica {replica_id!r} not in share graph"
            )
        self.graph = graph
        self.replica_id = replica_id
        i = replica_id
        self._neighbors: Tuple[ReplicaId, ...] = tuple(
            sorted(graph.neighbors(i), key=str)
        )
        keys = [(CLOCK, i)]
        keys += [(i, k) for k in self._neighbors]
        keys += [(k, i) for k in self._neighbors]
        self._eindex = EdgeIndex.of(keys)
        position = self._eindex.position
        self._clock_pos = position[(CLOCK, i)]
        self._send_pos: Dict[ReplicaId, int] = {
            k: position[(i, k)] for k in self._neighbors
        }
        self._recv_pos: Dict[ReplicaId, int] = {
            k: position[(k, i)] for k in self._neighbors
        }
        # advance: register -> send-counter positions of the channels the
        # multicast uses (same recipients as the edge-indexed bump table).
        bumps: Dict[RegisterName, Tuple[int, ...]] = {}
        for k in self._neighbors:
            for x in graph.shared(i, k):
                bumps[x] = bumps.get(x, ()) + (self._send_pos[k],)
        self._bumps = bumps
        self._zero = Timestamp.from_array(
            self._eindex, (0,) * len(self._eindex)
        )
        # Per-destination wire index (two keys), interned once.
        self._wire_eindex: Dict[ReplicaId, EdgeIndex] = {
            k: EdgeIndex.of([(CLOCK, i), (i, k)]) for k in self._neighbors
        }

    # -- required surface ----------------------------------------------
    def initial(self) -> Timestamp:
        return self._zero

    def advance(self, ts: Timestamp, register: RegisterName) -> Timestamp:
        return self.advance_delta(ts, register)[0]

    def advance_delta(
        self, ts: Timestamp, register: RegisterName
    ) -> Tuple[Timestamp, Optional[FrozenSet[Edge]]]:
        """Local write: clock ``+1``, channel seq ``+1`` per recipient."""
        values = list(ts.values_array)
        values[self._clock_pos] += 1
        positions = self._bumps.get(register, ())
        for pos in positions:
            values[pos] += 1
        order = self._eindex.order
        changed = frozenset(
            [order[self._clock_pos], *(order[pos] for pos in positions)]
        )
        return Timestamp.from_array(self._eindex, values), changed

    def merge(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> Timestamp:
        return self.merge_delta(ts, sender, sender_ts)[0]

    def merge_delta(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> Tuple[Timestamp, Optional[FrozenSet[Edge]]]:
        """Apply from ``sender``: raise the channel frontier + the clock."""
        i = self.replica_id
        seq = sender_ts.get((sender, i))
        clock = sender_ts.get((CLOCK, sender))
        values = ts.values_array
        out: Optional[List[int]] = None
        changed: List[int] = []
        recv_pos = self._recv_pos.get(sender)
        if recv_pos is not None and seq is not None and seq > values[recv_pos]:
            out = list(values)
            out[recv_pos] = seq
            changed.append(recv_pos)
        if clock is not None and clock > values[self._clock_pos]:
            if out is None:
                out = list(values)
            out[self._clock_pos] = clock
            changed.append(self._clock_pos)
        if out is None:
            return ts, frozenset()
        order = self._eindex.order
        return (
            Timestamp.from_array(self._eindex, out),
            frozenset(order[pos] for pos in changed),
        )

    def ready(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> bool:
        """Per-channel FIFO only: exactly the next channel sequence."""
        seq = sender_ts.get((sender, self.replica_id))
        recv_pos = self._recv_pos.get(sender)
        if seq is None or recv_pos is None:
            return True
        return seq == ts.values_array[recv_pos] + 1

    def counters(self) -> int:
        """Local metadata: clock + 2 counters per neighbour channel."""
        return len(self._eindex)

    # -- seq-indexed delivery ------------------------------------------
    def blocking_edge(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> Edge:
        """``J`` has one conjunct: the channel's receive frontier."""
        return (sender, self.replica_id)

    def sender_seq(
        self, sender: ReplicaId, sender_ts: Timestamp
    ) -> Optional[int]:
        return sender_ts.get((sender, self.replica_id))

    def next_seq(self, ts: Timestamp, sender: ReplicaId) -> Optional[int]:
        recv_pos = self._recv_pos.get(sender)
        return None if recv_pos is None else ts.values_array[recv_pos] + 1

    # -- stabilization surface -----------------------------------------
    def update_timestamp(self, ts: Timestamp, dst: ReplicaId) -> Timestamp:
        """The two-counter wire timestamp for the channel to ``dst``."""
        eindex = self._wire_eindex[dst]
        values = ts.values_array
        i = self.replica_id
        return Timestamp.from_array(
            eindex,
            [
                values[self._clock_pos]
                if key == (CLOCK, i)
                else values[self._send_pos[dst]]
                for key in eindex.order
            ],
        )

    def sent_count(self, ts: Timestamp, dst: ReplicaId) -> int:
        """Updates dispatched so far on the channel to ``dst``."""
        pos = self._send_pos.get(dst)
        return 0 if pos is None else ts.values_array[pos]

    def own_clock(self, ts: Timestamp) -> int:
        return ts.values_array[self._clock_pos]

    def stabilization_clock(
        self, src: ReplicaId, sender_ts: Timestamp
    ) -> int:
        """The issue clock carried by an update from ``src``."""
        clock = sender_ts.get((CLOCK, src))
        return 0 if clock is None else clock

    def merge_clock(self, ts: Timestamp, clock: int) -> Timestamp:
        """Lamport receive rule for stabilize frames (max, no bump)."""
        values = ts.values_array
        if clock <= values[self._clock_pos]:
            return ts
        out = list(values)
        out[self._clock_pos] = clock
        return Timestamp.from_array(self._eindex, out)

    def __repr__(self) -> str:
        return (
            f"GstPolicy(replica={self.replica_id!r}, "
            f"{len(self._neighbors)} channels)"
        )
