"""(i, e_jk)-loops (Definition 4) and simple-cycle enumeration.

A simple loop ``(i, l_1, ..., l_s = k, j = r_1, r_2, ..., r_t, i)`` with
``s >= 1``, ``t >= 1`` and ``r_{t+1} = i`` is an *(i, e_jk)-loop* when

  (i)   ``X_jk  - (X_{l_1} ∪ ... ∪ X_{l_{s-1}}) != {}``
  (ii)  ``X_{j r_2} - (X_{l_1} ∪ ... ∪ X_{l_{s-1}}) != {}``
  (iii) for ``2 <= q <= t``:
        ``X_{r_q r_{q+1}} - (X_{l_1} ∪ ... ∪ X_{l_s}) != {}``

where ``X_{l_p}`` is the full register set of replica ``l_p``.  Intuitively
the conditions certify that a chain of causally dependent updates can
travel ``j -> r_2 -> ... -> r_t -> i`` while staying invisible to the
replicas ``l_1 .. l_{s-1}`` on the other side of the loop -- which is
exactly why replica *i* must track edge ``e_jk`` (Theorem 8).

The existence of such loops determines the timestamp graph ``G_i``
(:mod:`repro.core.timestamp_graph`).  Enumerating simple cycles is
exponential in the worst case; :class:`LoopFinder` caches per-replica
results and accepts a maximum cycle length -- the capped mode doubles as
the "sacrificing causality" optimization of Appendix D.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.share_graph import ShareGraph
from repro.errors import ConfigurationError
from repro.types import Edge, ReplicaId


@dataclass(frozen=True)
class Loop:
    """One oriented simple loop through ``anchor`` (= ``i`` in Definition 4).

    ``left`` is ``(l_1, ..., l_s)`` with ``l_s = k`` and ``right`` is
    ``(r_1, ..., r_t)`` with ``r_1 = j``; the implicit ``r_{t+1}`` is the
    anchor itself.
    """

    anchor: ReplicaId
    left: Tuple[ReplicaId, ...]
    right: Tuple[ReplicaId, ...]

    @property
    def edge(self) -> Edge:
        """The candidate edge ``e_jk = (r_1, l_s)``."""
        return (self.right[0], self.left[-1])

    @property
    def vertices(self) -> Tuple[ReplicaId, ...]:
        """Cycle order: ``i, l_1, ..., l_s, r_1, ..., r_t``."""
        return (self.anchor,) + self.left + self.right

    def __len__(self) -> int:
        return 1 + len(self.left) + len(self.right)

    def __str__(self) -> str:
        verts = ",".join(str(v) for v in self.vertices)
        j, k = self.edge
        return f"({verts})-loop for e_({j},{k}) anchored at {self.anchor}"


def is_i_ejk_loop(graph: ShareGraph, loop: Loop) -> bool:
    """Check the three conditions of Definition 4 for ``loop``.

    The loop's shape (simplicity and share-graph adjacency of consecutive
    vertices) is validated as well, so this accepts arbitrary candidate
    decompositions -- useful for tests that probe the definition directly.
    """
    i = loop.anchor
    left, right = loop.left, loop.right
    if not left or not right:
        return False
    verts = loop.vertices
    if len(set(verts)) != len(verts):
        return False  # not a simple loop
    k, j = left[-1], right[0]
    if i in (j, k):
        return False
    # Consecutive vertices around the cycle must be share-graph neighbours,
    # including the closing edges (r_t, i) and the chord (k, j) itself.
    cycle = list(verts) + [i]
    for a, b in zip(cycle, cycle[1:]):
        if not graph.is_edge(a, b):
            return False

    union_l_open: Set = set()
    for lp in left[:-1]:  # l_1 .. l_{s-1}
        union_l_open |= graph.registers_at(lp)
    union_l_full = union_l_open | graph.registers_at(left[-1])

    # Condition (i): X_jk not covered by l_1 .. l_{s-1}.
    if not (graph.shared(j, k) - union_l_open):
        return False
    # Condition (ii): X_{j r_2} not covered by l_1 .. l_{s-1};
    # r_2 is the anchor itself when t == 1.
    r2 = right[1] if len(right) >= 2 else i
    if not (graph.shared(j, r2) - union_l_open):
        return False
    # Condition (iii): for 2 <= q <= t, X_{r_q r_{q+1}} not covered by
    # l_1 .. l_s (note the union now includes l_s = k).
    for q in range(2, len(right) + 1):
        rq = right[q - 1]
        rq_next = right[q] if q < len(right) else i
        if not (graph.shared(rq, rq_next) - union_l_full):
            return False
    return True


def simple_cycles_through(
    graph: ShareGraph,
    anchor: ReplicaId,
    max_len: Optional[int] = None,
) -> Iterator[Tuple[ReplicaId, ...]]:
    """Yield every oriented simple cycle ``(anchor, v_1, ..., v_m)``.

    Each undirected cycle is produced once per traversal direction, which
    is intentional: the two directions give different (i, e_jk)-loop
    decompositions.  ``max_len`` caps the number of vertices in the cycle.
    """
    if anchor not in graph:
        raise ConfigurationError(f"anchor {anchor!r} not in share graph")
    limit = max_len if max_len is not None else len(graph)
    if limit < 3:
        return
    # Depth first in neighbour order with one iterator per path vertex:
    # a recursive closure would leave a reference cycle per walk for the
    # cyclic collector, which costs more than the walk on a small graph.
    path: List[ReplicaId] = [anchor]
    on_path: Set[ReplicaId] = {anchor}
    stack = [iter(graph.neighbors(anchor))]
    while stack:
        for nxt in stack[-1]:
            if nxt == anchor:
                if len(path) >= 3:
                    yield tuple(path)
            elif nxt not in on_path and len(path) < limit:
                path.append(nxt)
                on_path.add(nxt)
                stack.append(iter(graph.neighbors(nxt)))
                break
        else:
            stack.pop()
            on_path.discard(path.pop())


def loop_decompositions(cycle: Tuple[ReplicaId, ...]) -> Iterator[Loop]:
    """All ways to split one oriented cycle into a Definition 4 loop.

    For cycle ``(i, v_1, ..., v_m)`` each split index ``s`` in ``1..m-1``
    yields the loop with ``left = (v_1..v_s)`` and ``right = (v_{s+1}..v_m)``,
    whose candidate edge is ``e_{v_{s+1} v_s}``.
    """
    anchor = cycle[0]
    rest = cycle[1:]
    for s in range(1, len(rest)):
        yield Loop(anchor=anchor, left=rest[:s], right=rest[s:])


class LoopFinder:
    """Cached (i, e_jk)-loop search over one share graph.

    An edge's witness is its first loop, shortest cycles first, then in
    :func:`simple_cycles_through` order, kept as the split ``s`` and cycle.

    Parameters
    ----------
    graph:
        The share graph.
    max_loop_len:
        Optional cap on cycle length (number of vertices).  ``None`` means
        unbounded -- exact per Definition 4.  A finite cap yields the
        Appendix D approximation that only tracks short loops.
    """

    def __init__(
        self, graph: ShareGraph, max_loop_len: Optional[int] = None
    ) -> None:
        if max_loop_len is not None and max_loop_len < 3:
            raise ConfigurationError("max_loop_len must be >= 3 (or None)")
        self.graph = graph
        self.max_loop_len = max_loop_len
        self._loop_edges: Dict[ReplicaId, FrozenSet[Edge]] = {}
        self._witnesses: Dict[ReplicaId, Dict[Edge, Tuple[int, Tuple]]] = {}
        # X_r as a bitmask, so Definition 4's set algebra is ``|`` and ``& ~``.
        bits: Dict = {}
        self._masks: Dict[ReplicaId, int] = {
            r: sum(1 << bits.setdefault(x, len(bits)) for x in graph.registers_at(r))
            for r in graph.replicas
        }

    def _compute(self, anchor: ReplicaId) -> None:
        graph = self.graph
        near = graph.neighbors(anchor)
        closing = frozenset(near)
        # Every triangle (i, a, b) is an (i, e_ba)-loop: conditions (i) and
        # (ii) read X_ab and X_bi, which the cycle's own edges make
        # non-empty, and (iii) is vacuous.
        found = {
            (b, a): (1, None)
            for a in near for b in graph.neighbors(a) if b in closing
        }
        # The candidates are the edges between non-anchor replicas; a
        # clique's witnesses are all triangles, so its search ends here.
        wanted = len(graph.edges) - 2 * len(near)
        limit = len(graph) if self.max_loop_len is None else self.max_loop_len
        for length in range(4, limit + 1):
            if len(found) == wanted:
                break
            for cycle in simple_cycles_through(graph, anchor, length):
                if len(cycle) == length:
                    self._judge(cycle, found)
                    if len(found) == wanted:
                        break
        self._witnesses[anchor] = found
        self._loop_edges[anchor] = frozenset(found)

    def _judge(self, cycle: Tuple[ReplicaId, ...], found: Dict) -> None:
        """Record each split of ``cycle`` that is the first (i, e_jk)-loop
        found for its edge."""
        masks = self._masks
        # left[s] = X_{v_1} | ... | X_{v_s}; shared[p] = X_{v_p v_{p+1}},
        # where v_{m+1} is the anchor.
        left = list(accumulate((masks[v] for v in cycle[1:]), or_, initial=0))
        ring = cycle[1:] + cycle[:1]
        shared = [0] + [masks[a] & masks[b] for a, b in zip(ring, ring[1:])]
        for s in range(1, len(cycle) - 1):
            e = (cycle[s + 1], cycle[s])
            # (i) X_jk and (ii) X_{j r_2} escape X_{l_1} .. X_{l_{s-1}};
            # (iii) each later right-side edge escapes X_{l_1} .. X_{l_s}.
            if (
                e not in found
                and shared[s] & ~left[s - 1]
                and shared[s + 1] & ~left[s - 1]
                and all(shared[p] & ~left[s] for p in range(s + 2, len(cycle)))
            ):
                found[e] = (s, cycle)

    def loop_edges(self, anchor: ReplicaId) -> FrozenSet[Edge]:
        """All edges ``e_jk`` (j != anchor != k) with an (anchor, e_jk)-loop."""
        if anchor not in self._loop_edges:
            self._compute(anchor)
        return self._loop_edges[anchor]

    def witness(self, anchor: ReplicaId, e: Edge) -> Optional[Loop]:
        """A concrete (anchor, e)-loop, or ``None`` when no loop exists."""
        if anchor not in self._witnesses:
            self._compute(anchor)
        s, cycle = self._witnesses[anchor].get(e, (0, None))
        if not s:
            return None
        cycle = cycle or (anchor, e[1], e[0])  # a triangle, kept as (1, None)
        return Loop(anchor, cycle[1 : s + 1], cycle[s + 1 :])

    def has_loop(self, anchor: ReplicaId, e: Edge) -> bool:
        """True when an (anchor, e)-loop exists."""
        return e in self.loop_edges(anchor)
