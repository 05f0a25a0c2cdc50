"""Core value types shared across the library.

The paper works with replicas named ``1..R``, shared read/write registers,
and *directed edges* of a share graph.  This module fixes the concrete
representations used everywhere:

* ``ReplicaId``  -- any hashable, orderable identifier (ints in the paper).
* ``RegisterName`` -- any hashable identifier (single letters in the paper).
* ``Edge`` -- a directed edge ``(j, k)`` of the share graph, meaning
  "updates issued by replica *j* on registers shared with replica *k*".
* ``UpdateId`` -- globally unique identity of one write operation.
* ``Update`` -- the message payload of Section 2.1 step 2(iii):
  ``update(i, tau_i, x, v)``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Hashable, Tuple

ReplicaId = Hashable
RegisterName = Hashable
ClientId = Hashable

#: A directed share-graph edge (source replica, destination replica).
Edge = Tuple[ReplicaId, ReplicaId]


def edge(j: ReplicaId, k: ReplicaId) -> Edge:
    """Build the directed edge ``e_jk`` from replica *j* to replica *k*."""
    return (j, k)


@dataclasses.dataclass(frozen=True, order=True)
class UpdateId:
    """Globally unique identity of one write (issuer + per-issuer sequence).

    Updates issued by one replica are numbered from 1 in issue order, so an
    ``UpdateId`` doubles as a position within the issuer's local history.
    """

    issuer: Any
    seq: int

    def __str__(self) -> str:
        return f"u({self.issuer},{self.seq})"


@dataclasses.dataclass(frozen=True)
class Update:
    """The ``update(i, tau, x, v)`` tuple of the algorithm prototype.

    ``timestamp`` is the issuer's timestamp *after* ``advance`` was applied,
    exactly as sent on the wire.  ``metadata_only`` marks dummy-register
    updates (Appendix D): the receiver applies the timestamp but must not
    write a value.  ``payload`` carries piggybacked data for the virtual
    register mechanism (Appendix D, Figure 13).
    """

    uid: UpdateId
    register: Any
    value: Any
    timestamp: Any
    metadata_only: bool = False
    payload: Any = None

    @property
    def issuer(self) -> Any:
        return self.uid.issuer

    def __str__(self) -> str:
        kind = "meta" if self.metadata_only else "data"
        return f"update[{self.uid}, {self.register}={self.value!r}, {kind}]"
