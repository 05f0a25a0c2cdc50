"""The GST global-stabilization protocol as a timestamp policy.

Xiang & Vaidya, "Global Stabilization for Causally Consistent Partial
Replication" (arXiv:1803.05575): instead of the edge-indexed vectors of
the PODC 2018 brief announcement, each update carries a scalar Lamport
clock plus one per-channel sequence number -- near-constant metadata --
and causal safety moves from delivery-time blocking to a *visibility
cut*: updates apply immediately (per-channel FIFO) but become readable
only once the Global Stable Time has passed their clock.  The tradeoff
is visibility latency, which the conflict-graph lower bounds in
:mod:`repro.lowerbound` predict: dense share graphs (big ``|E_i|``)
favor GST's O(1) metadata, sparse ones favor edge-indexed's zero lag.

:class:`GstPolicy` is the protocol behind the unchanged delivery
engine.
"""

from repro.gst.policy import CLOCK, GstPolicy, gst_wire_order

__all__ = [
    "CLOCK",
    "GstPolicy",
    "gst_wire_order",
]
