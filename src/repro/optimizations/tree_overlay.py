"""Tree-restricted communication (Appendix D / Saturn [Bravo et al.]).

Appendix D observes that restricting inter-replica communication to a
shared tree lets dependency tracking run with tree-sized metadata -- the
approach of Saturn.  This module generalizes the single-edge ring
breaking of :mod:`repro.optimizations.virtual`: *every* register shared
by two replicas that are not tree-adjacent is re-routed hop by hop along
the unique tree path, piggybacked on per-tree-edge virtual registers.

The resulting share graph is exactly the tree (plus private physical
copies), so every replica keeps ``2 * N_i`` counters -- the tree lower
bound of Section 4 -- regardless of how tangled the original share graph
was.  The price is multi-hop latency and extra messages for re-routed
registers, which the tests and the overlay example measure.

Limitations (documented, validated): registers shared by three or more
replicas are only supported when their holders form a connected subtree
of the chosen tree (then direct sharing along tree edges already works);
otherwise a :class:`~repro.errors.ConfigurationError` names the register.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.replica import Replica
from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem
from repro.errors import ConfigurationError
from repro.network.delays import DelayModel
from repro.types import RegisterName, ReplicaId, Update, UpdateId


def _sort_key(value):
    return (str(type(value)), repr(value))


@dataclass(frozen=True)
class TreeOverlayPlan:
    """The placement transform and routing tables for one tree."""

    placements: Mapping[ReplicaId, FrozenSet[RegisterName]]
    tree_edges: FrozenSet[Tuple[ReplicaId, ReplicaId]]  # undirected pairs
    #: (replica, logical register) -> physical register name, for
    #: re-routed registers only.
    aliases: Mapping[Tuple[ReplicaId, RegisterName], RegisterName]
    #: logical register -> (holder_a, holder_b) for re-routed registers.
    rerouted: Mapping[RegisterName, Tuple[ReplicaId, ReplicaId]]
    #: next_hop[u][dest] -> neighbour of u on the tree path to dest.
    next_hop: Mapping[ReplicaId, Mapping[ReplicaId, ReplicaId]]

    def share_graph(self) -> ShareGraph:
        return ShareGraph({r: set(x) for r, x in self.placements.items()})

    def virtual_register(self, u: ReplicaId, v: ReplicaId) -> RegisterName:
        lo, hi = sorted((u, v), key=_sort_key)
        return f"tree:{lo}|{hi}"


def _tree_next_hops(
    replicas: Sequence[ReplicaId],
    tree_edges: FrozenSet[Tuple[ReplicaId, ReplicaId]],
) -> Dict[ReplicaId, Dict[ReplicaId, ReplicaId]]:
    adjacency: Dict[ReplicaId, List[ReplicaId]] = {r: [] for r in replicas}
    for (u, v) in tree_edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for r in adjacency:
        adjacency[r].sort(key=_sort_key)
    next_hop: Dict[ReplicaId, Dict[ReplicaId, ReplicaId]] = {}
    for root in replicas:
        # BFS from root; first hop toward each destination.
        hops: Dict[ReplicaId, ReplicaId] = {}
        frontier = [(n, n) for n in adjacency[root]]
        seen = {root}
        while frontier:
            nxt: List[Tuple[ReplicaId, ReplicaId]] = []
            for node, first in frontier:
                if node in seen:
                    continue
                seen.add(node)
                hops[node] = first
                for neighbour in adjacency[node]:
                    if neighbour not in seen:
                        nxt.append((neighbour, first))
            frontier = nxt
        next_hop[root] = hops
    return next_hop


def _subtree_connected(
    holders: Set[ReplicaId],
    tree_edges: FrozenSet[Tuple[ReplicaId, ReplicaId]],
) -> bool:
    if len(holders) <= 1:
        return True
    adjacency: Dict[ReplicaId, List[ReplicaId]] = {h: [] for h in holders}
    for (u, v) in tree_edges:
        if u in holders and v in holders:
            adjacency[u].append(v)
            adjacency[v].append(u)
    start = next(iter(holders))
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for n in adjacency[node]:
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return seen == holders


def restrict_to_tree(
    graph: ShareGraph,
    tree_edges: Sequence[Tuple[ReplicaId, ReplicaId]],
) -> TreeOverlayPlan:
    """Build the overlay plan for an arbitrary spanning tree.

    ``tree_edges`` must form a spanning tree of the replicas; they need
    not be share-graph edges (virtual registers create the adjacency).
    """
    replicas = graph.replicas
    edges = frozenset(
        tuple(sorted(e, key=_sort_key)) for e in tree_edges
    )
    for (u, v) in edges:
        if u not in graph or v not in graph:
            raise ConfigurationError(f"tree edge {u!r}-{v!r} names unknown replica")
    if len(edges) != len(replicas) - 1:
        raise ConfigurationError(
            f"a spanning tree of {len(replicas)} replicas needs "
            f"{len(replicas) - 1} edges, got {len(edges)}"
        )
    next_hop = _tree_next_hops(replicas, edges)
    if any(len(next_hop[r]) != len(replicas) - 1 for r in replicas):
        raise ConfigurationError("tree edges do not span all replicas")

    placements: Dict[ReplicaId, Set[RegisterName]] = {
        r: set() for r in replicas
    }
    aliases: Dict[Tuple[ReplicaId, RegisterName], RegisterName] = {}
    rerouted: Dict[RegisterName, Tuple[ReplicaId, ReplicaId]] = {}

    def tree_adjacent(u: ReplicaId, v: ReplicaId) -> bool:
        return tuple(sorted((u, v), key=_sort_key)) in edges

    for register in sorted(graph.registers, key=_sort_key):
        holders = set(graph.replicas_storing(register))
        if len(holders) <= 1 or _subtree_connected(holders, edges):
            for h in holders:
                placements[h].add(register)
            continue
        if len(holders) > 2:
            raise ConfigurationError(
                f"register {register!r} is shared by {len(holders)} replicas "
                "that do not form a connected subtree; tree restriction "
                "supports 2-holder registers (or subtree-connected groups)"
            )
        a, b = sorted(holders, key=_sort_key)
        rerouted[register] = (a, b)
        for h in (a, b):
            physical = f"{register}@{h}"
            placements[h].add(physical)
            aliases[(h, register)] = physical

    # Per-tree-edge virtual registers (shared carrier channels).
    plan = TreeOverlayPlan(
        placements={},  # filled below (needs virtual names)
        tree_edges=edges,
        aliases=aliases,
        rerouted=rerouted,
        next_hop=next_hop,
    )
    for (u, v) in edges:
        name = plan.virtual_register(u, v)
        placements[u].add(name)
        placements[v].add(name)
    return TreeOverlayPlan(
        placements={r: frozenset(x) for r, x in placements.items()},
        tree_edges=edges,
        aliases=aliases,
        rerouted=rerouted,
        next_hop=next_hop,
    )


class TreeOverlaySystem:
    """A :class:`DSMSystem` whose cross-tree registers ride the overlay.

    ``system_kwargs`` (``batch_window`` etc.) pass through to
    :class:`DSMSystem` and compose with the overlay: forwarding writes
    ride the same batch frames, and so the same frame hooks, as direct
    ones.
    """

    def __init__(
        self,
        plan: TreeOverlayPlan,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        **system_kwargs: Any,
    ) -> None:
        self.plan = plan
        self.system = DSMSystem(
            plan.share_graph(),
            seed=seed,
            delay_model=delay_model,
            on_apply=self._on_apply,
            **system_kwargs,
        )
        self.delivery_hops: Dict[RegisterName, List[int]] = {}

    # ------------------------------------------------------------------
    def write(
        self, replica: ReplicaId, register: RegisterName, value: Any
    ) -> UpdateId:
        """Logical write; re-routed registers also launch an overlay hop."""
        physical = self.plan.aliases.get((replica, register), register)
        uid = self.system.replica(replica).write(physical, value)
        holders = self.plan.rerouted.get(register)
        if holders is not None:
            dest = holders[0] if replica == holders[1] else holders[1]
            self._forward(replica, register, value, dest, hops=0)
        return uid

    def read(self, replica: ReplicaId, register: RegisterName) -> Any:
        physical = self.plan.aliases.get((replica, register), register)
        return self.system.replica(replica).read(physical)

    def run(self, **kwargs: Any) -> None:
        self.system.run(**kwargs)

    def check(self, **kwargs: Any):
        return self.system.check(**kwargs)

    # ------------------------------------------------------------------
    def _forward(
        self,
        at: ReplicaId,
        register: RegisterName,
        value: Any,
        dest: ReplicaId,
        hops: int,
    ) -> None:
        nxt = self.plan.next_hop[at][dest]
        virtual = self.plan.virtual_register(at, nxt)
        self.system.replica(at).write(
            virtual, value, payload=(register, value, dest, hops + 1)
        )

    def _on_apply(self, replica: Replica, src: ReplicaId, update: Update) -> None:
        if update.payload is None or not str(update.register).startswith("tree:"):
            return
        register, value, dest, hops = update.payload
        here = replica.replica_id
        if here == dest:
            physical = self.plan.aliases[(here, register)]
            replica.store[physical] = value
            self.delivery_hops.setdefault(register, []).append(hops)
        else:
            self._forward(here, register, value, dest, hops)
