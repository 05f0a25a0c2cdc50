"""Tree-restricted communication (Appendix D, Figure 13 / Saturn [Bravo et al.]).

Appendix D observes that restricting inter-replica communication to a
shared tree lets dependency tracking run with tree-sized metadata -- the
approach of Saturn.  :func:`restrict_to_tree` re-routes *every* register
shared by two replicas that are not tree-adjacent hop by hop along the
unique tree path, piggybacked on per-tree-edge carrier registers.
Figure 13's ring breaking is the special case of a ring restricted to a
path tree: only the ring-closing register is re-routed.

The resulting share graph is exactly the tree (plus private physical
copies), so every replica keeps ``2 * N_i`` counters -- the tree lower
bound of Section 4 -- regardless of how tangled the original share graph
was.  The price is multi-hop latency and extra messages for re-routed
registers, which :attr:`TreeOverlaySystem.deliveries` records.

:class:`TreeOverlaySystem` is the one overlay forwarder: the sharded
runtime (:class:`repro.shard.system.ShardedSystem`) runs the same rule
over groups of replicas instead of single replicas.

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
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.replica import Replica
from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem, SystemMetrics
from repro.errors import ConfigurationError
from repro.network.delays import DelayModel
from repro.types import RegisterName, ReplicaId, Update, UpdateId

#: An overlay node: a replica of a tree overlay, a group of a shard plan.
Node = Hashable


def _sort_key(value):
    return (str(type(value)), repr(value))


def tree_next_hops(
    nodes: Sequence[Node],
    tree_edges: FrozenSet[Tuple[Node, Node]],
    noun: str = "replica",
) -> Dict[Node, Dict[Node, Node]]:
    """``next_hop[u][dest]``: the neighbour of ``u`` on the tree path to
    ``dest``.

    Raises :class:`ConfigurationError` unless ``tree_edges`` is a
    spanning tree of ``nodes`` (``noun`` names them in the message).
    """
    adjacency: Dict[Node, List[Node]] = {n: [] for n in nodes}
    for (u, v) in tree_edges:
        if u not in adjacency or v not in adjacency:
            raise ConfigurationError(
                f"tree edge {u!r}-{v!r} names an unknown {noun}"
            )
        adjacency[u].append(v)
        adjacency[v].append(u)
    if len(tree_edges) != len(nodes) - 1:
        raise ConfigurationError(
            f"a spanning tree of {len(nodes)} {noun}s needs "
            f"{len(nodes) - 1} edges, got {len(tree_edges)}"
        )
    for n in adjacency:
        adjacency[n].sort(key=_sort_key)
    next_hop: Dict[Node, Dict[Node, Node]] = {}
    for root in nodes:
        # BFS from root; first hop toward each destination.
        hops: Dict[Node, Node] = {}
        frontier = [(n, n) for n in adjacency[root]]
        seen = {root}
        while frontier:
            nxt: List[Tuple[Node, Node]] = []
            for node, first in frontier:
                if node in seen:
                    continue
                seen.add(node)
                hops[node] = first
                for neighbour in adjacency[node]:
                    if neighbour not in seen:
                        nxt.append((neighbour, first))
            frontier = nxt
        if len(hops) != len(nodes) - 1:
            raise ConfigurationError(f"tree edges do not span all {noun}s")
        next_hop[root] = hops
    return next_hop


@dataclass(frozen=True)
class TreeOverlayPlan:
    """The placement transform and routing tables for one tree."""

    placements: Mapping[ReplicaId, FrozenSet[RegisterName]]
    tree_edges: FrozenSet[Tuple[ReplicaId, ReplicaId]]  # undirected pairs
    #: logical register -> (holder_a, holder_b) for re-routed registers.
    rerouted: Mapping[RegisterName, Tuple[ReplicaId, ReplicaId]]
    #: next_hop[u][dest] -> neighbour of u on the tree path to dest.
    next_hop: Mapping[ReplicaId, Mapping[ReplicaId, ReplicaId]]

    def share_graph(self) -> ShareGraph:
        return ShareGraph({r: set(x) for r, x in self.placements.items()})

    @staticmethod
    def overlay_register(u: ReplicaId, v: ReplicaId) -> RegisterName:
        """The carrier register shared by tree neighbours ``u`` and ``v``."""
        lo, hi = sorted((u, v), key=_sort_key)
        return f"tree:{lo}|{hi}"

    @staticmethod
    def alias(replica: ReplicaId, register: RegisterName) -> RegisterName:
        """``replica``'s private physical copy of a re-routed register."""
        return f"{register}@{replica}"

    # The forwarder's view: every overlay node is one replica.
    @property
    def subscribers(self) -> Mapping[RegisterName, Tuple[ReplicaId, ...]]:
        return self.rerouted

    def node_of(self, replica: ReplicaId) -> ReplicaId:
        return replica


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
    not be share-graph edges (carrier registers create the adjacency).
    """
    edges = frozenset(
        tuple(sorted(e, key=_sort_key)) for e in tree_edges
    )
    next_hop = tree_next_hops(graph.replicas, edges)

    placements: Dict[ReplicaId, Set[RegisterName]] = {
        r: set() for r in graph.replicas
    }
    rerouted: Dict[RegisterName, Tuple[ReplicaId, ReplicaId]] = {}
    for register in sorted(graph.registers, key=_sort_key):
        holders = set(graph.replicas_storing(register))
        if _subtree_connected(holders, edges):
            for h in holders:
                placements[h].add(register)
            continue
        if len(holders) > 2:
            raise ConfigurationError(
                f"register {register!r} is shared by {len(holders)} replicas "
                "that do not form a connected subtree; tree restriction "
                "supports 2-holder registers (or subtree-connected groups)"
            )
        rerouted[register] = tuple(sorted(holders, key=_sort_key))
        for h in holders:
            placements[h].add(TreeOverlayPlan.alias(h, register))
    for (u, v) in edges:
        name = TreeOverlayPlan.overlay_register(u, v)
        placements[u].add(name)
        placements[v].add(name)
    return TreeOverlayPlan(
        placements={r: frozenset(x) for r, x in placements.items()},
        tree_edges=edges,
        rerouted=rerouted,
        next_hop=next_hop,
    )


class Delivery(NamedTuple):
    """One arrival of a re-routed value at a destination's alias."""

    hops: int
    #: Virtual time from the logical write to this arrival.
    latency: float


class TreeOverlaySystem:
    """A :class:`DSMSystem` whose re-routed registers ride the overlay.

    The plan names, per re-routed logical register, its ``subscribers``
    (overlay nodes), maps each replica to its node (``node_of``), routes
    between nodes (``next_hop``) and names the per-tree-edge carrier
    (``overlay_register``) and each node's physical copy (``alias``).
    Carrier registers and aliases are held by one replica per node.

    A logical write of a re-routed register updates the writer's alias
    and issues one carrier write per distinct next hop; the payload
    carries the logical register, the value, the destination nodes
    behind that hop, the hop count and the issue time.  A carrier update
    applied at a destination stores the value into the local alias; the
    remaining destinations are forwarded the same way.  Causal order
    between forwarded values is inherited from the carriers' causal
    delivery, so the one checker covers the overlay.

    ``system_kwargs`` (``policy_factory``, ``batch_window`` etc.) pass
    through to :class:`DSMSystem` and compose with the overlay:
    forwarding writes ride the same batch frames, and so the same frame
    hooks, as direct ones.
    """

    def __init__(
        self,
        plan: Any,
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
        self.graph = self.system.graph
        self.replicas = self.system.replicas
        self.simulator = self.system.simulator
        self.history = self.system.history
        self._subscribers = plan.subscribers
        #: uid -> written value, for the final store audit.
        self.values_by_uid: Dict[UpdateId, Any] = {}
        #: re-routed logical register -> its overlay deliveries.
        self.deliveries: Dict[RegisterName, List[Delivery]] = {}

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def write(
        self, replica: ReplicaId, register: RegisterName, value: Any
    ) -> UpdateId:
        """Logical write; re-routed registers also fan out over the tree."""
        subscribers = self._subscribers.get(register)
        if subscribers is None:
            uid = self.replicas[replica].write(register, value)
            self.values_by_uid[uid] = value
            return uid
        node = self.plan.node_of(replica)
        alias = self.plan.alias(node, register)
        if node not in subscribers or alias not in self.graph.registers_at(
            replica
        ):
            raise ConfigurationError(
                f"re-routed register {register!r} is writable only where "
                f"its subscribers {subscribers!r} hold a copy"
            )
        writer = self.replicas[replica]
        uid = writer.write(alias, value)
        self.values_by_uid[uid] = value
        others = [n for n in subscribers if n != node]
        now = self.simulator.now
        self._forward(writer, node, register, value, others, 0, now)
        return uid

    def read(self, replica: ReplicaId, register: RegisterName) -> Any:
        if register in self._subscribers:
            register = self.plan.alias(self.plan.node_of(replica), register)
        return self.replicas[replica].read(register)

    def schedule_write(
        self,
        time: float,
        replica: ReplicaId,
        register: RegisterName,
        value: Any,
    ) -> None:
        """Schedule a logical write at absolute virtual time ``time``."""
        self.simulator.schedule_at(time, self.write, replica, register, value)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        self.system.run(until=until, max_events=max_events)

    def quiescent(self) -> bool:
        return self.system.quiescent()

    # ------------------------------------------------------------------
    # The forwarding rule
    # ------------------------------------------------------------------
    def _forward(
        self,
        replica: Replica,
        node: Node,
        register: RegisterName,
        value: Any,
        dests: Sequence[Node],
        hops: int,
        issued_at: float,
    ) -> None:
        by_hop: Dict[Node, List[Node]] = {}
        for dest in dests:
            by_hop.setdefault(self.plan.next_hop[node][dest], []).append(dest)
        for nxt in sorted(by_hop):
            uid = replica.write(
                self.plan.overlay_register(node, nxt),
                value,
                payload=(
                    register, value, tuple(sorted(by_hop[nxt])), hops + 1,
                    issued_at,
                ),
            )
            self.values_by_uid[uid] = value

    def _on_apply(self, replica: Replica, src: ReplicaId, update: Update) -> None:
        if update.payload is None:
            return
        register, value, dests, hops, issued_at = update.payload
        node = self.plan.node_of(replica.replica_id)
        if node in dests:
            replica.store[self.plan.alias(node, register)] = value
            self.deliveries.setdefault(register, []).append(
                Delivery(hops, self.simulator.now - issued_at)
            )
        remote = [d for d in dests if d != node]
        self._forward(replica, node, register, value, remote, hops, issued_at)

    # ------------------------------------------------------------------
    # Verification & metrics
    # ------------------------------------------------------------------
    def check(self, **kwargs: Any):
        return self.system.check(**kwargs)

    def metrics(self) -> SystemMetrics:
        return self.system.metrics()

    def audit_stores(self) -> List[str]:
        """Final-store audit at quiescence; returns violation strings.

        Physical registers (direct ones, carriers, plus each alias'
        history-recorded writes) go through the harness
        :func:`~repro.harness.chaos.store_divergence` audit -- except the
        aliases, whose stores are also written directly by overlay
        forwarding that the history cannot see.  Those get the logical
        audit instead: every alias must end holding the value of some
        causally-maximal logical write of its register, where the
        logical writes are the alias writes across all subscribers
        (their causal order is recorded in the one shared history).
        """
        from repro.harness.chaos import causal_maxima, store_divergence

        alias_of: Dict[RegisterName, RegisterName] = {
            self.plan.alias(n, register): register
            for register, subscribers in self._subscribers.items()
            for n in subscribers
        }
        failures = store_divergence(
            self,
            self.values_by_uid,
            registers=self.graph.registers - frozenset(alias_of),
        )
        # Collected in one pass over the history so each logical
        # register's alias writes stay in issue order, as
        # ``causal_maxima`` requires.
        writes: Dict[RegisterName, List[UpdateId]] = {}
        for uid in self.history.all_updates():
            register = alias_of.get(self.history.updates[uid].register)
            if register is not None:
                writes.setdefault(register, []).append(uid)
        for register in sorted(writes, key=str):
            maxima = causal_maxima(self.history, writes[register])
            if not all(u in self.values_by_uid for u in maxima):
                continue
            allowed = {self.values_by_uid[u] for u in maxima}
            for node in self._subscribers[register]:
                alias = self.plan.alias(node, register)
                for rid in self.graph.replicas_storing(alias):
                    actual = self.replicas[rid].store.get(alias)
                    if actual not in allowed:
                        failures.append(
                            f"overlay store diverged: replica {rid!r} "
                            f"holds {register!r}={actual!r}, not the value "
                            "of any causally-maximal write"
                        )
        return failures
