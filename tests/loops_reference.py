"""Definition 4's loop search as enumerate-then-validate.

The reference :class:`repro.core.loops.LoopFinder` is compared against:
for each cycle length in turn, every oriented simple cycle through the
anchor (:func:`reference_cycles`, the recursive walk
:func:`simple_cycles_through` must match) is split every way
(:func:`loop_decompositions`) and each split is judged by the full
validator (:func:`is_i_ejk_loop`).  The first split that passes is an
edge's witness.  The finder judges cycles on register bitmasks; it builds
no :class:`Loop` and calls neither :func:`loop_decompositions` nor
:func:`is_i_ejk_loop`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.loops import Loop, is_i_ejk_loop, loop_decompositions
from repro.core.share_graph import ShareGraph
from repro.types import Edge, ReplicaId


def reference_cycles(
    graph: ShareGraph, anchor: ReplicaId, max_len: Optional[int] = None
) -> Iterator[Tuple[ReplicaId, ...]]:
    """Every oriented simple cycle ``(anchor, v_1, ..., v_m)`` of at most
    ``max_len`` vertices, depth first in neighbour order, by recursion."""
    limit = max_len if max_len is not None else len(graph)
    path: List[ReplicaId] = [anchor]

    def extend() -> Iterator[Tuple[ReplicaId, ...]]:
        for nxt in graph.neighbors(path[-1]):
            if nxt == anchor:
                if len(path) >= 3:
                    yield tuple(path)
            elif nxt not in path and len(path) < limit:
                path.append(nxt)
                yield from extend()
                path.pop()

    if limit >= 3:
        yield from extend()


def reference_witnesses(
    graph: ShareGraph, anchor: ReplicaId, max_loop_len: Optional[int] = None
) -> Dict[Edge, Loop]:
    """``e_jk -> `` the first (anchor, e_jk)-loop, shortest cycles first."""
    candidates = {e for e in graph.edges if anchor not in e}
    witnesses: Dict[Edge, Loop] = {}
    limit = max_loop_len if max_loop_len is not None else len(graph)
    for length in range(3, limit + 1):
        if len(witnesses) == len(candidates):
            break
        for cycle in reference_cycles(graph, anchor, length):
            if len(cycle) != length:
                continue
            for loop in loop_decompositions(cycle):
                if loop.edge not in witnesses and is_i_ejk_loop(graph, loop):
                    witnesses[loop.edge] = loop
            if len(witnesses) == len(candidates):
                break
    return witnesses
