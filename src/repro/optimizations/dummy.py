"""Dummy registers and false dependencies (Appendix D).

A *dummy* copy of register ``x`` at replica ``j`` is never read or written
by clients, but ``j`` receives (metadata-only) update messages for ``x``
and folds them into its timestamp.  Adding dummies changes the share graph
-- judicious choices shrink timestamp graphs at the cost of extra messages
and *false dependencies* (an update waits for another that did not really
happen-before it under the original placement).

The extreme point is full-replication emulation: every replica holds a
dummy for every register it lacks, the share graph becomes a clique, and
(after compression) timestamps collapse to classic vector clocks.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Set,
    Tuple,
)

from repro.core.causality import History, lane, lane_max
from repro.core.share_graph import ShareGraph
from repro.errors import ConfigurationError
from repro.types import RegisterName, ReplicaId

DummyMap = Dict[ReplicaId, FrozenSet[RegisterName]]


def add_dummy_registers(
    graph: ShareGraph,
    dummies: Mapping[ReplicaId, AbstractSet[RegisterName]],
) -> Tuple[ShareGraph, DummyMap]:
    """Augment ``graph`` with dummy placements.

    Returns the augmented share graph plus the dummy map to pass to
    :class:`~repro.core.system.DSMSystem`.  Each dummy register must exist
    somewhere in the system and must not already be stored at the replica.
    """
    dummy_map: DummyMap = {}
    for r, regs in dummies.items():
        if r not in graph:
            raise ConfigurationError(f"unknown replica {r!r}")
        regs = frozenset(regs)
        unknown = regs - graph.registers
        if unknown:
            raise ConfigurationError(
                f"dummy registers {sorted(map(repr, unknown))} do not exist"
            )
        already = regs & graph.registers_at(r)
        if already:
            raise ConfigurationError(
                f"registers {sorted(map(repr, already))} are already stored "
                f"at replica {r!r}"
            )
        if regs:
            dummy_map[r] = regs
    augmented = graph.with_additional_placements(dummy_map)
    return augmented, dummy_map


def emulate_full_replication(graph: ShareGraph) -> Tuple[ShareGraph, DummyMap]:
    """The Appendix D extreme: dummies for every register a replica lacks.

    The augmented share graph is a clique sharing every register, so the
    timestamp graph of each replica is the full edge set and, after
    compression, the metadata equals a length-R vector clock -- while the
    *stored* register copies are unchanged.
    """
    dummies = {
        r: graph.registers - graph.registers_at(r) for r in graph.replicas
    }
    return add_dummy_registers(
        graph, {r: regs for r, regs in dummies.items() if regs}
    )


def neighbor_closure_dummies(graph: ShareGraph) -> Tuple[ShareGraph, DummyMap]:
    """A selective middle ground: each replica adds dummies for the
    registers stored at its share-graph neighbours.

    This densifies local neighbourhoods (turning many long (i, e_jk)-loops
    into triangles) without full clique blowup; the E9 sweep measures the
    resulting size/message/false-dependency trade-off.
    """
    dummies: Dict[ReplicaId, Set[RegisterName]] = {}
    for r in graph.replicas:
        wanted: Set[RegisterName] = set()
        for n in graph.neighbors(r):
            wanted |= graph.registers_at(n)
        wanted -= graph.registers_at(r)
        if wanted:
            dummies[r] = wanted
    return add_dummy_registers(graph, dummies)


def false_dependencies(
    history: History, original_graph: ShareGraph
) -> Dict[str, int]:
    """Count dependencies that exist only because of dummy applies.

    Replays the history twice over Definition 1: once as recorded
    (metadata applies create dependencies -- that is how the protocol
    behaves) and once *pruned*, where applying an update at a replica that
    does not store its register under ``original_graph`` grows nothing.
    A pair ``(u1, u2)`` with ``u1 -> u2`` recorded but not pruned is a
    false dependency.

    Returns ``{"true": n, "false": m}`` counts of happened-before pairs.
    """
    width = len(history.replicas)
    top = history.top
    pruned_front: Dict[ReplicaId, int] = {}
    pruned_past: List[int] = [0] * len(history.order)
    for event in history.events:
        uid = event.uid
        if uid is None or event.kind == "visible":
            continue
        i = history.index[uid]
        rep = event.replica
        if event.kind == "issue":
            pruned_past[i] = pruned_front.get(rep, 0)
        elif rep not in original_graph.replicas_storing(
            history.updates[uid].register
        ):
            continue
        closure = pruned_past[i] + (1 << (history.slots[i] << 5))
        pruned_front[rep] = lane_max(pruned_front.get(rep, 0), closure, top)
    # Both pasts are unions of chain prefixes and the pruned one lies
    # inside the recorded one, so each count is a lane sum.
    recorded = (history.past(i) for i in range(len(pruned_past)))
    true_pairs = sum(lane(f, s) for f in pruned_past for s in range(width))
    false_pairs = sum(lane(f, s) for f in recorded for s in range(width))
    false_pairs -= true_pairs
    return {"true": true_pairs, "false": false_pairs}
