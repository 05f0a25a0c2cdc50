"""Conflict graphs over causal pasts and the Theorem 15 bound.

Definition 13 declares two causal pasts ``S1, S2`` of replica *i*
*conflicting* when (1) both have at least one update on every share-graph
edge and (2) they differ as ``S1|_e ⊂ S2|_e`` on some edge *e* that is
either incident at *i* or closes a simple loop through *i* satisfying side
conditions.  Lemma 14 shows conflicting pasts need distinct timestamps, so
the chromatic number of the conflict graph lower-bounds the timestamp
space size (Theorem 15).

Counting abstraction
--------------------
Exactly representing causal pasts is infeasible; this module abstracts a
causal past to its per-edge update *counts* (``S|_e -> |S|_e|``).  Updates
on one edge by one issuer are interchangeable in the Definition 13
constructions, and count vectors where one is coordinate-wise below the
other realize the proper-subset relation, so conflicts between count
vectors are genuine conflicts.  The reported bound is the **clique
number** of the abstracted conflict graph -- a clique of pairwise
conflicting pasts needs pairwise distinct timestamps, so this is a valid
lower bound on ``sigma^i(m)`` regardless of the abstraction.  The
register-availability side conditions (2) of Definition 13 are checked
structurally per loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.loops import loop_decompositions, simple_cycles_through
from repro.core.share_graph import ShareGraph
from repro.errors import ConfigurationError
from repro.types import Edge, ReplicaId

#: A count-abstracted causal past: counts per directed share-graph edge,
#: in the deterministic edge order of :func:`edge_order`.
CausalPastVector = Tuple[int, ...]


def edge_order(graph: ShareGraph) -> Tuple[Edge, ...]:
    """Deterministic ordering of the directed share-graph edges."""
    return tuple(
        sorted(graph.edges, key=lambda e: (str(e[0]), str(e[1])))
    )


@dataclass(frozen=True)
class _LoopCondition:
    """Precomputed Definition 13 data for one loop decomposition."""

    edge: Edge  # e = e_{r_1 l_s}
    equal_edges: Tuple[Edge, ...]  # H ∩ E minus e: counts must agree
    register_ok: bool  # side condition (2): witnesses exist structurally


def _loop_conditions(
    graph: ShareGraph, anchor: ReplicaId, max_loop_len: Optional[int] = None
) -> Dict[Edge, List[_LoopCondition]]:
    """All loop-closing conditions of Definition 13, grouped by edge."""
    out: Dict[Edge, List[_LoopCondition]] = {}
    for cycle in simple_cycles_through(graph, anchor, max_loop_len):
        for loop in loop_decompositions(cycle):
            e = loop.edge
            if e not in graph.edges:  # pragma: no cover - cycles use edges
                continue
            lefts = loop.left
            rights = tuple(loop.right) + (anchor,)  # r_1..r_t, r_{t+1}=i
            union_left_regs: FrozenSet = frozenset().union(
                *(graph.registers_at(l) for l in lefts)
            )
            register_ok = True
            for p in range(len(rights) - 1):  # p = 1..t
                r_p, r_next = rights[p], rights[p + 1]
                if not (graph.shared(r_p, r_next) - union_left_regs):
                    register_ok = False
                    break
            equal_edges = tuple(
                sorted(
                    (
                        (r, l)
                        for r in rights
                        for l in lefts
                        if (r, l) != e and (r, l) in graph.edges
                    ),
                    key=lambda ed: (str(ed[0]), str(ed[1])),
                )
            )
            out.setdefault(e, []).append(
                _LoopCondition(e, equal_edges, register_ok)
            )
    return out


class ConflictOracle:
    """Reusable conflict tester for one (share graph, replica) pair."""

    def __init__(
        self,
        graph: ShareGraph,
        anchor: ReplicaId,
        max_loop_len: Optional[int] = None,
    ) -> None:
        if anchor not in graph:
            raise ConfigurationError(f"replica {anchor!r} not in share graph")
        self.graph = graph
        self.anchor = anchor
        self.edges = edge_order(graph)
        self._edge_index = {e: i for i, e in enumerate(self.edges)}
        self._incident = frozenset(
            e
            for n in graph.neighbors(anchor)
            for e in ((anchor, n), (n, anchor))
        )
        self._loop_conditions = _loop_conditions(graph, anchor, max_loop_len)

    def conflicts(self, v1: CausalPastVector, v2: CausalPastVector) -> bool:
        """Definition 13 (count abstraction): do ``v1`` and ``v2`` conflict?"""
        # Condition 1: every edge populated in both pasts.
        if any(c == 0 for c in v1) or any(c == 0 for c in v2):
            return False
        for small, big in ((v1, v2), (v2, v1)):
            for idx, e in enumerate(self.edges):
                if small[idx] >= big[idx]:
                    continue
                if e in self._incident:
                    return True
                for cond in self._loop_conditions.get(e, ()):
                    if not cond.register_ok:
                        continue
                    if all(
                        small[self._edge_index[h]] == big[self._edge_index[h]]
                        for h in cond.equal_edges
                    ):
                        return True
        return False


def conflicts(
    graph: ShareGraph,
    anchor: ReplicaId,
    v1: CausalPastVector,
    v2: CausalPastVector,
) -> bool:
    """One-shot conflict test (builds a fresh oracle)."""
    return ConflictOracle(graph, anchor).conflicts(v1, v2)


def enumerate_vectors(
    graph: ShareGraph, m: int
) -> Iterator[CausalPastVector]:
    """All count vectors with every edge count in ``1..m``.

    Vectors with a zero coordinate never conflict (condition 1) and are
    isolated in the conflict graph, so they are skipped.
    """
    if m < 1:
        raise ConfigurationError("need m >= 1")
    n = len(edge_order(graph))
    yield from itertools.product(range(1, m + 1), repeat=n)


#: A conflict graph as adjacency sets, nodes in enumeration order.
ConflictGraph = Dict[CausalPastVector, Set[CausalPastVector]]


def conflict_graph(
    graph: ShareGraph,
    anchor: ReplicaId,
    m: int,
    max_vectors: int = 4096,
) -> ConflictGraph:
    """The conflict graph ``H_i`` over count-abstracted causal pasts.

    Returns ``{vector: set of conflicting vectors}``.  Raises when the
    vector space exceeds ``max_vectors`` (the construction is exponential
    by nature; Theorem 15 is exercised on tiny share graphs).
    """
    vectors = list(enumerate_vectors(graph, m))
    if len(vectors) > max_vectors:
        raise ConfigurationError(
            f"{len(vectors)} causal-past vectors exceed max_vectors="
            f"{max_vectors}; use a smaller graph or m"
        )
    oracle = ConflictOracle(graph, anchor)
    g: ConflictGraph = {v: set() for v in vectors}
    for a, b in itertools.combinations(vectors, 2):
        if oracle.conflicts(a, b):
            g[a].add(b)
            g[b].add(a)
    return g


def clique_number_bound(conflict_g: ConflictGraph) -> int:
    """Clique number of the conflict graph: a valid bound on sigma^i(m).

    Exact Bron--Kerbosch with pivoting; fine for the tiny instances
    Theorem 15 is checked on.
    """
    best = 0
    # (clique size, candidates that extend it), expanded depth first.
    todo = [(0, set(conflict_g))]
    while todo:
        size, p = todo.pop()
        if size + len(p) <= best:
            continue
        if not p:
            best = size
            continue
        pivot = max(p, key=lambda u: len(p & conflict_g[u]))
        for v in list(p - conflict_g[pivot]):
            todo.append((size + 1, p & conflict_g[v]))
            p.remove(v)
    return best


def greedy_chromatic_upper_bound(conflict_g: ConflictGraph) -> int:
    """Greedy colouring, largest degree first: a chromatic-number bound.

    Nodes are coloured in descending degree, ties kept in insertion
    order; each takes the smallest colour no coloured neighbour holds.
    When this equals :func:`clique_number_bound`, the chromatic number is
    determined exactly.
    """
    colours: Dict[CausalPastVector, int] = {}
    for u in sorted(conflict_g, key=lambda v: len(conflict_g[v]), reverse=True):
        taken = {colours[v] for v in conflict_g[u] if v in colours}
        colours[u] = next(c for c in itertools.count() if c not in taken)
    return 1 + max(colours.values(), default=-1)
