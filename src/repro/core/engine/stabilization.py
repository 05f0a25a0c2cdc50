"""Global-stabilization bookkeeping for visibility-cut policies.

The GST protocol (Xiang & Vaidya, arXiv:1803.05575) applies updates
immediately in per-channel FIFO order and defers *visibility* to a
global stabilization cut: an update issued at Lamport clock ``c``
becomes readable once every replica's local stable time has passed
``c``.  This module holds the transport-independent bookkeeping the
:class:`~repro.core.engine.core.ProtocolCore` drives when its policy
declares ``stabilizing = True``:

* ``heard[j]`` -- a clock value such that every update neighbour *j*
  sent this replica with clock ``<= heard[j]`` has been applied here.
  Maintained from applied updates (FIFO per channel + strictly
  increasing issuer clocks make the applied clock such a bound) and
  from stabilize frames whose per-destination ``sent`` counter proves
  the channel is fully drained (see
  :meth:`ProtocolCore.receive_stabilize` -- the transport itself may
  reorder, so a frame's clock is only trusted once everything it
  covers has applied).
* ``LST_i = min(own clock, min_j heard[j])`` -- the local stable time:
  no neighbour can still deliver an update clocked ``<= LST_i``.
* ``table[r]`` -- a min-gossip view of every replica's published LST.
  Each replica only ever publishes its *own* LST in ``table[self]``;
  relayed entries are merged by element-wise max, which is sound
  because every entry is monotone.
* ``cut = min_r table[r]`` -- the Global Stable Time.  Every update
  clocked ``<= cut`` is applied at every replica storing its register,
  so making that prefix visible is causally safe (causal dependencies
  carry strictly smaller Lamport clocks).

Everything here is monotone, so the protocol converges regardless of
frame loss or reordering; periodic ticks provide liveness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.types import ReplicaId


@dataclass(frozen=True)
class StabilizeFrame:
    """One stabilize message, personalized per destination.

    ``entries`` is the issuer's min-gossip LST table as sorted
    ``(replica, lst)`` pairs; ``sent`` is the number of updates the
    issuer has sent *to this frame's destination*, which lets the
    receiver decide whether ``clock`` is a safe ``heard`` bound (all
    covered updates applied) or must wait for the channel to drain.
    """

    src: ReplicaId
    clock: int
    entries: Tuple[Tuple[ReplicaId, int], ...]
    sent: int = 0


class StabilizationState:
    """Per-replica GST bookkeeping (monotone, transport-independent)."""

    __slots__ = ("replica_id", "heard", "table")

    def __init__(
        self,
        replica_id: ReplicaId,
        neighbors: Iterable[ReplicaId],
        replicas: Iterable[ReplicaId],
    ) -> None:
        self.replica_id = replica_id
        self.heard: Dict[ReplicaId, int] = {n: 0 for n in neighbors}
        self.table: Dict[ReplicaId, int] = {r: 0 for r in replicas}

    def note_heard(self, src: ReplicaId, clock: int) -> None:
        """Record a safe clock bound for neighbour ``src`` (monotone)."""
        if src in self.heard and clock > self.heard[src]:
            self.heard[src] = clock

    def merge_table(
        self, entries: Iterable[Tuple[ReplicaId, int]]
    ) -> None:
        """Fold relayed LST claims in by element-wise max."""
        table = self.table
        for replica, lst in entries:
            if replica in table and lst > table[replica]:
                table[replica] = lst

    def local_stable_time(self, own_clock: int) -> int:
        """``LST_i``: nothing clocked at or below this can still arrive."""
        lst = own_clock
        for value in self.heard.values():
            if value < lst:
                lst = value
        return lst

    def refresh(self, own_clock: int) -> int:
        """Publish the current LST into the gossip table; return the cut."""
        lst = self.local_stable_time(own_clock)
        if lst > self.table[self.replica_id]:
            self.table[self.replica_id] = lst
        return self.cut()

    def table_entries(self) -> Tuple[Tuple[ReplicaId, int], ...]:
        """The gossip table as sorted pairs (frame payload)."""
        return tuple(sorted(self.table.items(), key=lambda kv: str(kv[0])))

    def cut(self) -> int:
        """The Global Stable Time this replica currently knows."""
        return min(self.table.values())

    def __repr__(self) -> str:
        return (
            f"StabilizationState({self.replica_id!r}, cut={self.cut()}, "
            f"heard={self.heard})"
        )
