"""Share graph (Definition 3) and register placements.

A partially replicated system is described by a *placement*: which subset
``X_i`` of the shared registers each replica ``i`` stores.  The share graph
``G = (V, E)`` has the replicas as vertices and directed edges ``e_ij`` and
``e_ji`` whenever ``X_ij = X_i ∩ X_j`` is non-empty.  Directed edges always
appear in pairs, but the *timestamp graph* built on top of this is genuinely
directed, so the share graph is exposed as a directed structure.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Tuple,
)

from repro.errors import ConfigurationError, UnknownReplicaError
from repro.types import Edge, RegisterName, ReplicaId


class ShareGraph:
    """Immutable share graph derived from a register placement.

    Parameters
    ----------
    placements:
        Mapping from replica id to the set of registers it stores
        (``X_i`` in the paper).  Register sets may be empty (an isolated
        replica), but at least one replica must exist.

    Examples
    --------
    The running example of Section 3 (Figure 3)::

        >>> sg = ShareGraph({1: {"x"}, 2: {"x", "y"}, 3: {"y", "z"}, 4: {"z"}})
        >>> sorted(sg.shared(2, 3))
        ['y']
        >>> sg.is_edge(1, 4)
        False
    """

    def __init__(
        self, placements: Mapping[ReplicaId, AbstractSet[RegisterName]]
    ) -> None:
        if not placements:
            raise ConfigurationError("placement must contain at least one replica")
        self._placements: Dict[ReplicaId, FrozenSet[RegisterName]] = {
            r: frozenset(regs) for r, regs in placements.items()
        }
        self._replicas: Tuple[ReplicaId, ...] = tuple(
            sorted(self._placements, key=_sort_key)
        )
        self._storing: Dict[RegisterName, FrozenSet[ReplicaId]] = {}
        by_register: Dict[RegisterName, List[ReplicaId]] = {}
        for r in self._replicas:
            for x in sorted(self._placements[r], key=_sort_key):
                by_register.setdefault(x, []).append(r)
        self._storing = {x: frozenset(rs) for x, rs in by_register.items()}
        self._neighbors: Dict[ReplicaId, Tuple[ReplicaId, ...]] = {}
        for i in self._replicas:
            nbrs = [
                j
                for j in self._replicas
                if j != i and self._placements[i] & self._placements[j]
            ]
            self._neighbors[i] = tuple(nbrs)
        self._edges: FrozenSet[Edge] = frozenset(
            (i, j) for i in self._replicas for j in self._neighbors[i]
        )
        # recipients() memo; never invalidated (the graph is immutable).
        self._recipients: Dict[
            Tuple[ReplicaId, RegisterName], Tuple[ReplicaId, ...]
        ] = {}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> Tuple[ReplicaId, ...]:
        """All replica ids, in deterministic (sorted) order."""
        return self._replicas

    @property
    def registers(self) -> FrozenSet[RegisterName]:
        """All registers placed on at least one replica."""
        return frozenset(self._storing)

    @property
    def edges(self) -> FrozenSet[Edge]:
        """All directed edges ``e_ij`` with ``X_ij != {}``."""
        return self._edges

    def registers_at(self, i: ReplicaId) -> FrozenSet[RegisterName]:
        """``X_i``: the registers stored at replica *i*."""
        try:
            return self._placements[i]
        except KeyError:
            raise UnknownReplicaError(i) from None

    def shared(self, i: ReplicaId, j: ReplicaId) -> FrozenSet[RegisterName]:
        """``X_ij = X_i ∩ X_j``: registers stored at both *i* and *j*."""
        return self.registers_at(i) & self.registers_at(j)

    def replicas_storing(self, x: RegisterName) -> FrozenSet[ReplicaId]:
        """``C(x)``: the set of replicas storing register *x*."""
        return self._storing.get(x, frozenset())

    def neighbors(self, i: ReplicaId) -> Tuple[ReplicaId, ...]:
        """Replicas sharing at least one register with *i* (sorted)."""
        if i not in self._placements:
            raise UnknownReplicaError(i)
        return self._neighbors[i]

    def is_edge(self, i: ReplicaId, j: ReplicaId) -> bool:
        """True when ``e_ij`` (equivalently ``e_ji``) is in the share graph."""
        return (i, j) in self._edges

    def degree(self, i: ReplicaId) -> int:
        """``N_i``: the number of neighbours of replica *i*."""
        return len(self.neighbors(i))

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def is_full_replication(self) -> bool:
        """True when every replica stores every register."""
        all_regs = self.registers
        return all(self._placements[r] == all_regs for r in self._replicas)

    def is_connected(self) -> bool:
        """True when the (undirected) share graph is connected."""
        if len(self._replicas) <= 1:
            return True
        seen = {self._replicas[0]}
        stack = [self._replicas[0]]
        while stack:
            v = stack.pop()
            for w in self._neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self._replicas)

    def placement(self) -> Dict[ReplicaId, FrozenSet[RegisterName]]:
        """A copy of the placement mapping (replica -> register set)."""
        return dict(self._placements)

    def recipients(self, issuer: ReplicaId, x: RegisterName) -> Tuple[ReplicaId, ...]:
        """Replicas (other than the issuer) that must receive updates on *x*.

        Mirrors step 2(iii) of the prototype: ``k != i`` with ``x in X_k``.
        Memoized per ``(issuer, x)``: the simulator samples channel
        delays in this tuple's order, so it must be the same every call.
        """
        out = self._recipients.get((issuer, x))
        if out is None:
            if x not in self.registers_at(issuer):
                # Callers validate this; keep the message precise anyway.
                raise ConfigurationError(
                    f"replica {issuer!r} does not store register {x!r}"
                )
            out = self._recipients[(issuer, x)] = tuple(
                k for k in self.replicas_storing(x) if k != issuer
            )
        return out

    # ------------------------------------------------------------------
    # Transformations (used by the Appendix D optimizations)
    # ------------------------------------------------------------------
    def with_additional_placements(
        self, extra: Mapping[ReplicaId, AbstractSet[RegisterName]]
    ) -> "ShareGraph":
        """A new share graph with registers added to some replicas."""
        placements = {r: set(regs) for r, regs in self._placements.items()}
        for r, regs in extra.items():
            if r not in placements:
                raise UnknownReplicaError(r)
            placements[r] |= set(regs)
        return ShareGraph(placements)

    def induced(self, replicas: Iterable[ReplicaId]) -> "ShareGraph":
        """The subgraph induced by ``replicas``, with full register sets.

        Register sets are kept intact (not restricted to registers shared
        inside the subset), so ``shared(i, j)`` and the loop conditions of
        Definition 4 evaluate exactly as in the full graph for any cycle
        whose vertices all lie in ``replicas``.  The sharding layer relies
        on this: when a subset is separated from the rest of the graph by
        bridge edges, its induced subgraph has the same simple cycles --
        and therefore the same timestamp-graph loop edges -- as the full
        graph.
        """
        keep = set(replicas)
        unknown = keep - set(self._placements)
        if unknown:
            raise UnknownReplicaError(sorted(unknown, key=_sort_key)[0])
        return ShareGraph({r: self._placements[r] for r in keep})

    # ------------------------------------------------------------------
    # Dunder / interop
    # ------------------------------------------------------------------
    def __contains__(self, replica: ReplicaId) -> bool:
        return replica in self._placements

    def __len__(self) -> int:
        return len(self._replicas)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShareGraph):
            return NotImplemented
        return self._placements == other._placements

    def __hash__(self) -> int:
        return hash(frozenset(self._placements.items()))

    def __repr__(self) -> str:
        return f"ShareGraph({len(self._replicas)} replicas, {len(self._edges)} directed edges)"


def _sort_key(value):
    """Deterministic ordering for heterogeneous hashables."""
    return (str(type(value)), repr(value))
