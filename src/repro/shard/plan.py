"""Shard plans: hundreds of replicas as interconnected multicast groups.

The paper's Section 5 observes that *restricting communication* to a
structured share graph keeps timestamp metadata small.  This module makes
that restriction a construction principle at scale: a large register
space is partitioned across **groups** of replicas (the multicast-group
correspondence of :mod:`repro.multicast.groups`), and the groups are
connected by a **tree overlay** between designated *contact* replicas
(the hop-by-hop forwarding of :mod:`repro.optimizations.tree_overlay`,
lifted from replicas to groups).

Why per-group timestamp graphs are exact, not an approximation
--------------------------------------------------------------
Each group exposes exactly one contact replica to the outside, and
contacts of tree-adjacent groups share exactly one overlay register.
Two structural facts follow for the composed share graph:

* A simple cycle that leaves a group must re-enter it, and the only
  vertex of a group adjacent to the outside is its contact -- so the
  cycle would visit the contact twice.  No simple cycle dips in and out
  of a group.
* A simple cycle visiting several groups could only run contact-to-
  contact, but contact-contact edges exist exactly along the group tree,
  and a tree has no cycles.

Hence **every simple cycle of the composed graph lies inside a single
group**, so every ``(i, e_jk)``-loop of Definition 4 does too.  Replica
``i``'s timestamp graph (Definition 5) can therefore be computed on the
subgraph induced by ``i``'s group alone
(:meth:`~repro.core.share_graph.ShareGraph.induced` keeps register sets
intact, so the loop conditions evaluate identically) plus ``i``'s
incident edges from the full graph.  ``tests/test_shard.py`` verifies
this equals the exact global computation on small instances; at 128-512
replicas the global loop enumeration is combinatorially infeasible,
which is precisely why the sharded construction is the one that scales.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.loops import LoopFinder
from repro.core.share_graph import ShareGraph
from repro.errors import ConfigurationError
from repro.optimizations.tree_overlay import tree_next_hops
from repro.types import Edge, RegisterName, ReplicaId

GroupName = str

#: Reserved name prefix for the per-tree-edge overlay carrier registers.
OVERLAY_PREFIX = "shard:"


def _sort_key(value):
    return (str(type(value)), repr(value))


@dataclass(frozen=True)
class ShardPlan:
    """The full layout of one sharded deployment.

    Built through :func:`make_shard_plan` (which validates the structure)
    or :func:`social_shard_plan` (which generates social-graph-shaped
    deployments); the fields are:

    ``groups``
        group name -> its member replicas (disjoint across groups).
    ``group_placements``
        group name -> in-group placement (replica -> register set).
        Register names must be unique across groups.
    ``contacts``
        group name -> the one member that carries overlay registers and
        cross-group register copies.
    ``tree_edges``
        undirected spanning tree over the group names.
    ``cross_registers``
        logical register -> subscriber groups (>= 2).  Each subscriber
        group's contact holds a per-group physical copy (*alias*);
        values propagate between groups along the tree overlay.
    ``next_hop``
        group-level routing table: ``next_hop[g][dest]`` is the
        tree-neighbour of ``g`` on the path to ``dest``.
    """

    groups: Mapping[GroupName, Tuple[ReplicaId, ...]]
    group_placements: Mapping[
        GroupName, Mapping[ReplicaId, FrozenSet[RegisterName]]
    ]
    contacts: Mapping[GroupName, ReplicaId]
    tree_edges: FrozenSet[Tuple[GroupName, GroupName]]
    cross_registers: Mapping[RegisterName, Tuple[GroupName, ...]]
    next_hop: Mapping[GroupName, Mapping[GroupName, GroupName]]
    #: replica -> its group (derived; filled by make_shard_plan).
    group_of: Mapping[ReplicaId, GroupName] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def overlay_register(self, a: GroupName, b: GroupName) -> RegisterName:
        """The carrier register shared by the contacts of ``a`` and ``b``."""
        lo, hi = sorted((a, b))
        return f"{OVERLAY_PREFIX}{lo}|{hi}"

    def alias(self, group: GroupName, register: RegisterName) -> RegisterName:
        """The per-group physical copy of a cross-group register."""
        return f"{register}@{group}"

    # The overlay forwarder's view: nodes are groups.
    @property
    def subscribers(self) -> Mapping[RegisterName, Tuple[GroupName, ...]]:
        return self.cross_registers

    def node_of(self, replica: ReplicaId) -> GroupName:
        return self.group_of[replica]

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def placements(self) -> Dict[ReplicaId, Set[RegisterName]]:
        """The composed physical placement the sharded system runs on."""
        placements: Dict[ReplicaId, Set[RegisterName]] = {}
        for gname in self.groups:
            for rid, regs in self.group_placements[gname].items():
                placements.setdefault(rid, set()).update(regs)
            placements.setdefault(self.contacts[gname], set())
        for (a, b) in self.tree_edges:
            name = self.overlay_register(a, b)
            placements[self.contacts[a]].add(name)
            placements[self.contacts[b]].add(name)
        for register, subscribers in self.cross_registers.items():
            for g in subscribers:
                placements[self.contacts[g]].add(self.alias(g, register))
        return placements

    def share_graph(self) -> ShareGraph:
        return ShareGraph(self.placements())

    def logical_graph(self) -> ShareGraph:
        """The *monolithic* share graph over the logical register space.

        In-group registers sit at their in-group holders and each
        cross-group register sits directly at every subscriber group's
        contact -- no aliases, no overlay carriers.  This is both the
        workload surface (who may write which logical register: feed it
        to ``zipf_writes``) and the monolithic comparison system the
        bench prices metadata against.
        """
        placements: Dict[ReplicaId, Set[RegisterName]] = {}
        for gname in self.groups:
            for rid, regs in self.group_placements[gname].items():
                placements.setdefault(rid, set()).update(regs)
            placements.setdefault(self.contacts[gname], set())
        for register, subscribers in self.cross_registers.items():
            for g in subscribers:
                placements[self.contacts[g]].add(register)
        return ShareGraph(placements)

    def replica_edges(
        self, graph: Optional[ShareGraph] = None
    ) -> Dict[ReplicaId, FrozenSet[Edge]]:
        """Per-replica timestamp-graph edge sets, one group at a time.

        Incident edges come from the composed graph (contacts see their
        overlay neighbours); loop edges come from a per-group
        :class:`LoopFinder` over the induced group subgraph, which is
        exact by the bridge argument in the module docstring.  Total cost
        is ``O(groups * group_loop_cost)`` instead of one global loop
        enumeration over hundreds of replicas.
        """
        if graph is None:
            graph = self.share_graph()
        edges: Dict[ReplicaId, FrozenSet[Edge]] = {}
        for gname in sorted(self.groups):
            members = self.groups[gname]
            finder = LoopFinder(graph.induced(members))
            for rid in members:
                incident = frozenset(
                    e
                    for n in graph.neighbors(rid)
                    for e in ((rid, n), (n, rid))
                )
                loops = frozenset(
                    e for e in finder.loop_edges(rid) if e not in incident
                )
                edges[rid] = incident | loops
        return edges

    def describe(self) -> Dict[str, object]:
        """Summary counts for CLI / bench reporting."""
        replicas = sum(len(m) for m in self.groups.values())
        in_group = {
            x
            for p in self.group_placements.values()
            for regs in p.values()
            for x in regs
        }
        return {
            "groups": len(self.groups),
            "replicas": replicas,
            "group_registers": len(in_group),
            "cross_registers": len(self.cross_registers),
            "tree_edges": len(self.tree_edges),
        }


def make_shard_plan(
    group_placements: Mapping[
        GroupName, Mapping[ReplicaId, AbstractSet[RegisterName]]
    ],
    tree_edges: Sequence[Tuple[GroupName, GroupName]],
    cross_registers: Mapping[RegisterName, Sequence[GroupName]] = {},
    contacts: Optional[Mapping[GroupName, ReplicaId]] = None,
) -> ShardPlan:
    """Validate and assemble a :class:`ShardPlan`.

    ``contacts`` defaults to each group's first member in sorted order.
    Raises :class:`ConfigurationError` on structural violations: shared
    replicas or register names between groups, a non-spanning group tree,
    a contact outside its group, a cross register with fewer than two
    subscriber groups or colliding with an in-group register, or any
    register using the reserved ``shard:`` prefix.
    """
    if not group_placements:
        raise ConfigurationError("need at least one group")
    names = sorted(group_placements)
    groups: Dict[GroupName, Tuple[ReplicaId, ...]] = {}
    seen_replicas: Dict[ReplicaId, GroupName] = {}
    seen_registers: Dict[RegisterName, GroupName] = {}
    for gname in names:
        placement = group_placements[gname]
        if not placement:
            raise ConfigurationError(f"group {gname!r} has no members")
        members = tuple(sorted(placement, key=_sort_key))
        groups[gname] = members
        for rid in members:
            if rid in seen_replicas:
                raise ConfigurationError(
                    f"replica {rid!r} is in groups {seen_replicas[rid]!r} "
                    f"and {gname!r}; groups must be disjoint"
                )
            seen_replicas[rid] = gname
            for x in placement[rid]:
                if str(x).startswith(OVERLAY_PREFIX):
                    raise ConfigurationError(
                        f"register {x!r} uses the reserved "
                        f"{OVERLAY_PREFIX!r} prefix"
                    )
                owner = seen_registers.setdefault(x, gname)
                if owner != gname:
                    raise ConfigurationError(
                        f"register {x!r} appears in groups {owner!r} and "
                        f"{gname!r}; cross-group sharing must go through "
                        "cross_registers"
                    )
    chosen_contacts: Dict[GroupName, ReplicaId] = (
        dict(contacts)
        if contacts is not None
        else {g: groups[g][0] for g in names}
    )
    for gname in names:
        contact = chosen_contacts.get(gname)
        if contact not in groups[gname]:
            raise ConfigurationError(
                f"contact {contact!r} is not a member of group {gname!r}"
            )
    edges = frozenset(tuple(sorted(e)) for e in tree_edges)
    next_hop = tree_next_hops(names, edges, noun="group")
    cross: Dict[RegisterName, Tuple[GroupName, ...]] = {}
    for register in sorted(cross_registers, key=_sort_key):
        if str(register).startswith(OVERLAY_PREFIX):
            raise ConfigurationError(
                f"cross register {register!r} uses the reserved "
                f"{OVERLAY_PREFIX!r} prefix"
            )
        if register in seen_registers:
            raise ConfigurationError(
                f"cross register {register!r} collides with an in-group "
                f"register of group {seen_registers[register]!r}"
            )
        subscribers = tuple(sorted(set(cross_registers[register])))
        if len(subscribers) < 2:
            raise ConfigurationError(
                f"cross register {register!r} needs at least two "
                "subscriber groups"
            )
        for g in subscribers:
            if g not in groups:
                raise ConfigurationError(
                    f"cross register {register!r} subscribes unknown "
                    f"group {g!r}"
                )
        cross[register] = subscribers
    return ShardPlan(
        groups=groups,
        group_placements={
            g: {
                rid: frozenset(group_placements[g][rid])
                for rid in groups[g]
            }
            for g in names
        },
        contacts=chosen_contacts,
        tree_edges=edges,
        cross_registers=cross,
        next_hop=next_hop,
        group_of=seen_replicas,
    )


def social_shard_plan(
    replicas: int = 128,
    group_size: int = 8,
    shared_per_group: Optional[int] = None,
    replication: int = 3,
    cross: Optional[int] = None,
    max_fanout: Optional[int] = None,
    seed: int = 0,
) -> ShardPlan:
    """A social-graph-shaped deployment: dense communities, hub overlay.

    Replicas ``1..replicas`` are split into communities of ``group_size``.
    Inside each community, ``shared_per_group`` registers are each placed
    on ``replication`` random members (dense intra-community sharing)
    and every member keeps one private register.  The community tree
    grows by preferential attachment, so early communities become hubs --
    the heavy-tailed connectivity of real social graphs.  ``cross``
    *celebrity* registers (named ``c.hotNNN`` so they take the top Zipf
    ranks under :func:`repro.workloads.zipf_writes`' sorted-rank order)
    are each subscribed by several communities, with fanout decaying in
    rank: the hottest keys span the most communities.

    ``group_size`` is the scaling knob that must stay small: the per-group
    timestamp-graph computation is the paper's exponential loop
    enumeration confined to one group, so deployments scale by adding
    communities, never by growing them (64 groups of 8 wire in under a
    second; one group of 16 with the same register density does not
    terminate in minutes).
    """
    if replicas <= 0 or group_size <= 0 or replicas % group_size:
        raise ConfigurationError(
            "replicas must be a positive multiple of group_size"
        )
    n_groups = replicas // group_size
    if n_groups < 2:
        raise ConfigurationError("need at least two groups")
    rng = random.Random(seed)
    if shared_per_group is None:
        shared_per_group = 3 * group_size
    replication = max(2, min(replication, group_size))
    if cross is None:
        cross = max(2, n_groups // 2)
    if max_fanout is None:
        max_fanout = min(4, n_groups)
    max_fanout = max(2, min(max_fanout, n_groups))

    names = [f"g{k:03d}" for k in range(n_groups)]
    group_placements: Dict[GroupName, Dict[ReplicaId, Set[RegisterName]]] = {}
    for k, gname in enumerate(names):
        members = list(range(k * group_size + 1, (k + 1) * group_size + 1))
        placement: Dict[ReplicaId, Set[RegisterName]] = {
            rid: {f"{gname}.p{rid}"} for rid in members
        }
        for j in range(shared_per_group):
            register = f"{gname}.x{j:03d}"
            for rid in rng.sample(members, replication):
                placement[rid].add(register)
        group_placements[gname] = placement

    # Preferential-attachment community tree: hubs emerge early.
    degree = {g: 0 for g in names}
    tree_edges: List[Tuple[GroupName, GroupName]] = []
    for k in range(1, n_groups):
        weights = [degree[names[j]] + 1 for j in range(k)]
        parent = rng.choices(names[:k], weights=weights, k=1)[0]
        tree_edges.append((parent, names[k]))
        degree[parent] += 1
        degree[names[k]] += 1

    cross_registers: Dict[RegisterName, List[GroupName]] = {}
    for j in range(cross):
        fanout = max(2, int(round(max_fanout / (j + 1) ** 0.5)))
        cross_registers[f"c.hot{j:03d}"] = rng.sample(names, fanout)

    return make_shard_plan(
        group_placements, tree_edges, cross_registers
    )
