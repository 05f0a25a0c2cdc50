"""Network partition episodes.

A :class:`Partition` names the directed channels cut during one window
of virtual time; :func:`split_channels` builds the cut for a two-sided
split.  :class:`~repro.network.faults.FaultPlan` takes them as
``blackouts`` (every copy crossing a cut channel inside the window is
dropped), which is how the fault timeline's ``partition`` action runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet

from repro.errors import ConfigurationError
from repro.types import Edge, ReplicaId


@dataclass(frozen=True)
class Partition:
    """One partition episode: ``channels`` are cut during [start, end)."""

    start: float
    end: float
    channels: FrozenSet[Edge]

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ConfigurationError("partition needs start < end")

    def cuts(self, src: ReplicaId, dst: ReplicaId, now: float) -> bool:
        return self.start <= now < self.end and (src, dst) in self.channels


def split_channels(
    side_a: AbstractSet[ReplicaId], side_b: AbstractSet[ReplicaId]
) -> FrozenSet[Edge]:
    """All directed channels crossing a two-sided split."""
    if set(side_a) & set(side_b):
        raise ConfigurationError("partition sides must be disjoint")
    channels = set()
    for a in side_a:
        for b in side_b:
            channels.add((a, b))
            channels.add((b, a))
    return frozenset(channels)
