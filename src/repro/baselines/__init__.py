"""Baseline timestamp policies the paper compares against.

* :class:`VectorClockPolicy` -- full replication with classic replica-
  indexed vector timestamps (Lazy Replication applied to the peer-to-peer
  architecture, Sections 1 and 4).
* :func:`full_track_policy` -- partial replication that tracks *every*
  share-graph edge (the safe-but-wasteful upper bound; cf. Full-Track in
  Section 7).
"""

from repro.baselines.full_replication import VectorClockPolicy
from repro.baselines.full_track import full_track_policy

__all__ = [
    "VectorClockPolicy",
    "full_track_policy",
]
