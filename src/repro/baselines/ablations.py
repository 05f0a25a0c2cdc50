"""Predicate-J ablations: why both halves of the predicate exist.

Section 3.3's delivery predicate has two parts:

1. ``tau_i[e_ki] == T[e_ki] - 1`` -- per-sender-edge FIFO: apply the
   sender's updates on this edge in issue order, no gaps;
2. ``tau_i[e_ji] >= T[e_ji]`` for other incoming edges ``e_ji`` the
   sender also tracks -- third-party gating: wait until everything the
   sender had seen from *other* replicas has arrived here too.

Each ablation removes one part; the resulting policy is wrong in a
specific, demonstrable way (see ``benchmarks/test_ablation_predicate.py``):

* :class:`NoThirdPartyCheckPolicy` applies updates that causally depend
  on third-party updates not yet received -- a safety violation;
* :class:`LaxSenderEdgePolicy` lets a later same-sender update overtake
  an earlier one, clobbering values and violating safety.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from repro.core.share_graph import ShareGraph
from repro.core.timestamp import EdgeIndexedPolicy, Timestamp
from repro.types import Edge, ReplicaId


class NoThirdPartyCheckPolicy(EdgeIndexedPolicy):
    """Predicate J without the third-party gating clause."""

    policy_tag = "no-third-party"

    def ready(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> bool:
        e_ki = (sender, self.replica_id)
        own, incoming = ts.get(e_ki), sender_ts.get(e_ki)
        if own is None or incoming is None:
            return True
        return own == incoming - 1

    def merge_delta(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> Tuple[Timestamp, Optional[FrozenSet[Edge]]]:
        """Merge, reporting an *unknown* delta.

        With the gate gone nothing holds an update back until ``tau``
        dominates its third-party counters, so merging it can raise
        another sender's edge ``e_ji`` -- and with it that sender's
        expected sequence number, which the delivery engine assumes only
        the sender's own applies move.  ``None`` makes the engine
        re-examine every queue, so the ablation keeps violating in
        exactly the naive rescan loop's order.
        """
        return super().merge_delta(ts, sender, sender_ts)[0], None


class LaxSenderEdgePolicy(EdgeIndexedPolicy):
    """Predicate J with ``>=`` on the sender edge (gaps allowed)."""

    policy_tag = "lax-sender-edge"

    # Without the exact gap check any queued update can fire, so the
    # delivery engine must scan instead of seq-indexing sender queues.
    exact_sender_fifo = False

    def ready(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> bool:
        i = self.replica_id
        e_ki = (sender, i)
        own, incoming = ts.get(e_ki), sender_ts.get(e_ki)
        if own is not None and incoming is not None and own > incoming - 1:
            # Already past this update: would apply stale data, but the
            # ablation's point is the weaker "no gap check" below.
            pass
        for e in self._incoming:
            if e[0] == sender:
                continue
            other = sender_ts.get(e)
            if other is not None and ts[e] < other:
                return False
        return True

    # No sequence conjunct here, so the base answer (``e_ki`` first)
    # could name a counter this predicate never reads.
    blocking_edge = EdgeIndexedPolicy._third_party_block


def no_third_party_factory(graph: ShareGraph, rid: ReplicaId):
    return NoThirdPartyCheckPolicy(graph, rid)


def lax_sender_factory(graph: ShareGraph, rid: ReplicaId):
    return LaxSenderEdgePolicy(graph, rid)
