"""Timestamp graphs (Definition 5).

The timestamp graph ``G_i = (V_i, E_i)`` of replica *i* holds exactly the
directed share-graph edges replica *i* must track:

* every edge incident at *i* (both directions), plus
* every edge ``e_jk`` (``j != i != k``) for which an (i, e_jk)-loop exists.

Theorem 8 shows tracking these edges is *necessary*; the algorithm of
Section 3.3 (see :mod:`repro.core.timestamp`) shows it is *sufficient*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Optional

from repro.core.loops import LoopFinder
from repro.core.share_graph import ShareGraph
from repro.types import Edge, ReplicaId


@dataclass(frozen=True)
class TimestampGraph:
    """The edge set replica ``replica`` keeps counters for.

    ``incident`` and ``loop_edges`` partition ``edges``: incident edges give
    FIFO-style delivery on *i*'s own channels, loop edges carry causal
    dependencies around cycles (Section 3.3, "intuition of correctness").
    """

    replica: ReplicaId
    incident: FrozenSet[Edge]
    loop_edges: FrozenSet[Edge]

    @cached_property
    def edges(self) -> FrozenSet[Edge]:
        """``E_i``: all tracked directed edges, built once per graph."""
        return self.incident | self.loop_edges

    @property
    def vertices(self) -> FrozenSet[ReplicaId]:
        """``V_i``: endpoints of tracked edges."""
        verts = set()
        for (u, v) in self.edges:
            verts.add(u)
            verts.add(v)
        return frozenset(verts)

    def __contains__(self, e: Edge) -> bool:
        return e in self.incident or e in self.loop_edges

    def __len__(self) -> int:
        return len(self.incident) + len(self.loop_edges)

    def __str__(self) -> str:
        fmt = lambda es: "{" + ", ".join(
            f"e({u},{v})" for (u, v) in sorted(es, key=lambda e: (str(e[0]), str(e[1])))
        ) + "}"
        return (
            f"G_{self.replica}: incident={fmt(self.incident)} "
            f"loops={fmt(self.loop_edges)}"
        )


def timestamp_graph(
    graph: ShareGraph,
    replica: ReplicaId,
    max_loop_len: Optional[int] = None,
) -> TimestampGraph:
    """Compute ``G_i`` for one replica.

    Parameters
    ----------
    graph:
        The share graph.
    replica:
        The replica ``i``.
    max_loop_len:
        Optional cap on (i, e_jk)-loop length; ``None`` is exact.  A cap
        implements the Appendix D "sacrificing causality" variant.
    """
    return _from_finder(LoopFinder(graph, max_loop_len=max_loop_len), replica)


def _from_finder(finder: LoopFinder, replica: ReplicaId) -> TimestampGraph:
    incident = frozenset(
        e
        for n in finder.graph.neighbors(replica)
        for e in ((replica, n), (n, replica))
    )
    # Loop edges never touch the anchor, so they are disjoint from incident.
    return TimestampGraph(
        replica=replica, incident=incident, loop_edges=finder.loop_edges(replica)
    )


def all_timestamp_graphs(
    graph: ShareGraph, max_loop_len: Optional[int] = None
) -> Dict[ReplicaId, TimestampGraph]:
    """Timestamp graphs of every replica, sharing one loop-finder cache."""
    finder = LoopFinder(graph, max_loop_len=max_loop_len)
    return {r: _from_finder(finder, r) for r in graph.replicas}
