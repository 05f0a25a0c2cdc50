"""Edge-indexed vector timestamps and the Section 3.3 algorithm.

The paper's algorithm prototype (Section 2.1) leaves three things open: the
timestamp structure, how ``advance``/``merge`` update it, and the delivery
predicate ``J``.  A :class:`TimestampPolicy` bundles exactly those three
choices, so one :class:`~repro.core.replica.Replica` implementation can run
the paper's algorithm, the baselines, and the deliberately broken variants
used by the necessity (Theorem 8) experiments.

:class:`EdgeIndexedPolicy` is the paper's proposed algorithm:

* replica *i* keeps an integer counter per edge of its timestamp graph
  ``E_i`` (initially 0);
* ``advance(i, tau, x, v)`` increments ``tau[e_ik]`` for every ``k`` with
  ``x in X_ik``;
* ``merge(i, tau, k, T)`` takes the element-wise max over ``E_i ∩ E_k``;
* ``J(i, tau, k, T)`` is true iff ``tau[e_ki] == T[e_ki] - 1`` and
  ``tau[e_ji] >= T[e_ji]`` for every ``e_ji in E_i ∩ E_k`` with ``j != k``.

Representation
--------------
Timestamps are stored as a flat tuple of counters over an interned
:class:`~repro.core.edge_index.EdgeIndex` (a canonical edge -> position
map shared by every timestamp with the same index set).  The policy
precomputes position plans -- a register -> positions bump table for
``advance`` and per-sender-index position pairings for ``merge`` and
``J`` -- so the hot path is flat tuple arithmetic with no dictionary
walks or per-edge hashing.  Value semantics (equality, hashing, the
``Mapping``-flavoured accessors) are unchanged: the Definition 12
``timestamps_used`` counting and every dict-constructed timestamp
interoperate with array-constructed ones transparently.

Wide timestamps on a policy's own index are one integer of 32-bit lanes
instead (``Timestamp._packed``, :data:`LANE_MIN_WIDTH`): ``advance``,
``merge``, ``J`` and a batch frame's fold are a few big-integer
operations, and the tuple is unpacked only when something reads it.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from struct import error as StructError
from typing import (
    Callable,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.core.edge_index import EdgeIndex
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import all_timestamp_graphs, timestamp_graph
from repro.errors import ConfigurationError, ProtocolError
from repro.types import Edge, RegisterName, ReplicaId

#: ``advance_delta``, ``merge_delta``, ``merge_run`` and ``blocked_many``
#: take the lane-packed path (big-integer expressions over
#: :attr:`Timestamp._packed`, returning timestamps born from lanes) only
#: on this policy's own interned index and only when its width reaches
#: this many counters; below it the fixed cost of the big-integer
#: operations exceeds the walk (``docs/performance.md`` section 8).
LANE_MIN_WIDTH = 64


def _uvarint_size(value: int) -> int:
    """Size of ``value`` as a LEB128 varint.

    Must agree with :func:`repro.wire.varint.uvarint_size`; duplicated
    here (and cross-checked by tests) because the wire package imports
    this module, so importing it back would be circular.
    """
    return max(1, (value.bit_length() + 6) // 7)


class Timestamp:
    """An immutable vector timestamp indexed by directed share-graph edges.

    Only the edges in :attr:`index` exist; reading any other edge raises
    ``KeyError``.  Use :meth:`get` for the tolerant read used by ``merge``.
    Timestamps hash and compare by value so experiments can count distinct
    timestamps (Definition 12).

    Internally the counters live in a flat tuple positioned by an interned
    :class:`EdgeIndex`; :meth:`from_array` is the zero-copy constructor the
    policies use on the hot path, :meth:`_from_lanes` the lanes-only one.
    """

    __slots__ = ("_eindex", "_values", "_hash", "_wire_size", "_packed")

    def __init__(self, counters: Mapping[Edge, int]) -> None:
        eindex = EdgeIndex.of(counters.keys())
        self._eindex: EdgeIndex = eindex
        self._values: Optional[Tuple[int, ...]] = tuple(
            counters[e] for e in eindex.order
        )
        self._hash: Optional[int] = None
        self._wire_size: Optional[int] = None
        # The counters as 32-bit lanes of one integer (:meth:`_pack`): the
        # representation when born from lanes, else a cache a merge fills.
        self._packed: Optional[int] = None

    @classmethod
    def from_array(
        cls, eindex: EdgeIndex, values: Sequence[int]
    ) -> "Timestamp":
        """Hot-path constructor over a known index; skips dict handling."""
        ts = cls.__new__(cls)
        ts._eindex = eindex
        ts._values = tuple(values)
        ts._hash = None
        ts._wire_size = None
        ts._packed = None
        return ts

    @classmethod
    def _from_lanes(cls, eindex: EdgeIndex, packed: int) -> "Timestamp":
        """A timestamp held as lanes alone (every lane's top bit clear)."""
        ts = cls.from_array(eindex, ())
        ts._values, ts._packed = None, packed
        return ts

    @classmethod
    def zeros(cls, edges: Iterable[Edge]) -> "Timestamp":
        eindex = EdgeIndex.of(edges)
        return cls.from_array(eindex, (0,) * len(eindex))

    @property
    def index(self) -> FrozenSet[Edge]:
        """The edge set this timestamp is indexed by."""
        return self._eindex.keys

    @property
    def edge_index(self) -> EdgeIndex:
        """The interned positional index (identity-comparable)."""
        return self._eindex

    @property
    def values_array(self) -> Tuple[int, ...]:
        """The flat counters in :attr:`edge_index` order."""
        return self._unpack() if self._values is None else self._values

    def _unpack(self) -> Tuple[int, ...]:
        """Unpack, once, the tuple of a timestamp born from lanes."""
        packer = self._eindex.lanes()[1]
        raw = self._packed.to_bytes(packer.size, "little")
        values = self._values = packer.unpack(raw)
        return values

    def _at(self, pos: int) -> int:
        """The counter at ``pos``, read from its lane if there is no tuple."""
        values = self._values
        if values is None:
            return self._packed >> (pos << 5) & 0xFFFFFFFF
        return values[pos]

    def __getitem__(self, e: Edge) -> int:
        return self.values_array[self._eindex.position[e]]

    def get(self, e: Edge, default: Optional[int] = None) -> Optional[int]:
        pos = self._eindex.position.get(e)
        return default if pos is None else self.values_array[pos]

    def __contains__(self, e: Edge) -> bool:
        return e in self._eindex.position

    def __len__(self) -> int:
        return len(self._eindex.order)

    def items(self) -> Iterable[Tuple[Edge, int]]:
        return zip(self._eindex.order, self.values_array)

    def to_dict(self) -> Dict[Edge, int]:
        return dict(self.items())

    def replace(self, changes: Mapping[Edge, int]) -> "Timestamp":
        """A copy with some counters replaced (must already be indexed)."""
        position = self._eindex.position
        values = list(self.values_array)
        for e, value in changes.items():
            values[position[e]] = value  # KeyError on unindexed edges
        return Timestamp.from_array(self._eindex, values)

    def total(self) -> int:
        """Sum of all counters (a cheap progress measure)."""
        return sum(self.values_array)

    def _pack(self) -> Optional[int]:
        """The counters as one integer of 32-bit little-endian lanes,
        cached on ``_packed``; ``None`` (nothing cached) when a counter
        has outgrown its lane.  Every lane's top bit is clear -- the
        packer is signed, so it refuses a counter of 2**31 or more --
        which is what lets ``merge_delta`` compare and select all lanes
        at once without a borrow or a carry crossing between two."""
        packed = self._packed
        if packed is None:
            try:
                raw = self._eindex.lanes()[1].pack(*self.values_array)
            except StructError:
                return None
            packed = self._packed = int.from_bytes(raw, "little")
        return packed

    def dominates(self, other: "Timestamp") -> bool:
        """Element-wise ``>=`` over the shared index."""
        values, other_values = self.values_array, other.values_array
        if self._eindex is other._eindex:
            return all(a >= b for a, b in zip(values, other_values))
        position = self._eindex.position
        other_position = other._eindex.position
        if len(other_position) < len(position):
            smaller, larger = other_position, position
        else:
            smaller, larger = position, other_position
        return all(
            values[position[e]] >= other_values[other_position[e]]
            for e in smaller
            if e in larger
        )

    def diff_keys(self, other: "Timestamp") -> Optional[FrozenSet[Edge]]:
        """Keys whose counters differ; ``None`` when the indexes differ.

        The replica's wake-set delivery engine uses this to decide which
        pending senders a state change could have unblocked.
        """
        if self._eindex is not other._eindex:
            return None
        values, other_values = self.values_array, other.values_array
        if values == other_values:
            return frozenset()
        order = self._eindex.order
        return frozenset(
            order[pos]
            for pos, (a, b) in enumerate(zip(values, other_values))
            if a != b
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        # Interning guarantees equal index sets share one EdgeIndex.
        same = self._eindex is other._eindex
        return same and self.values_array == other.values_array

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._eindex.key_hash, self.values_array))
        return self._hash

    def __repr__(self) -> str:
        def fmt(e: Edge) -> str:
            if isinstance(e, tuple) and len(e) == 2:
                return f"e({e[0]},{e[1]})"
            return repr(e)

        inner = ", ".join(f"{fmt(e)}={c}" for e, c in self.items())
        return f"Timestamp({inner})"


class RaisedLanes(AbstractSet[Edge]):
    """The edges a lane merge raised, as a view over its ``held``: each
    membership test reads one bit, and only iteration visits lanes."""

    __slots__ = ("_eindex", "_held")

    def __init__(self, eindex: EdgeIndex, held: int) -> None:
        self._eindex = eindex
        self._held = held

    def __contains__(self, e: object) -> bool:
        pos = self._eindex.position.get(e)  # type: ignore[arg-type]
        return pos is not None and not self._held >> (pos << 5 | 31) & 1

    def __iter__(self) -> Iterator[Edge]:
        order, packer = self._eindex.order, self._eindex.lanes()[1]
        top_bytes = self._held.to_bytes(packer.size, "little")[3::4]
        pos = top_bytes.find(0)
        while pos >= 0:
            yield order[pos]
            pos = top_bytes.find(0, pos + 1)

    def __len__(self) -> int:
        return len(self._eindex) - self._held.bit_count()


class TimestampPolicy(Protocol):
    """The three open choices of the algorithm prototype (Section 2.1).

    This is the *required* surface: representation-initialisation,
    ``advance``, ``merge``, the delivery predicate ``J``, and a metadata
    size.  Around it sits an *extended* policy-layer surface the engine,
    wire codec, and adapters discover via ``getattr`` -- every hook is
    optional, and a policy that omits one gets the documented fallback:

    Identification
        ``policy_tag: str`` -- short stable name of the policy.
        Fallback: ``"edge"`` (the paper's algorithm).

    Hot-path deltas
        ``advance_delta(ts, register)`` / ``merge_delta(ts, k, T)``
        return ``(new_ts, changed_keys | None)``, the keys any container
        of edges, so the engine's wake sets cost no second scan.
        Fallback: ``advance``/``merge`` plus :meth:`Timestamp.diff_keys`.

    Seq-indexed delivery
        ``exact_sender_fifo: bool`` plus ``sender_seq(k, T)`` /
        ``next_seq(ts, k)`` let the engine index each sender's queue by
        its strictly-increasing sender-edge counter.  Fallback: linear
        queue scans.  ``blocking_edge(ts, k, T)`` -- consulted only when
        ``ready(ts, k, T)`` is false -- names the local counter the first
        false conjunct of ``J`` reads (sequence conjunct first); the
        engine re-examines the sender only when it changes, which is
        complete because ``J`` is a conjunction and counters only grow.
        Fallback: wake on any change.  With ``exact_sender_fifo`` the
        engine also assumes that only ``k``'s own applies move the
        counter ``next_seq(ts, k)`` reads (true whenever ``J`` gates
        third parties); a policy whose merges can raise it for another
        sender must report an unknown delta from ``merge_delta``.

    Whole-frame delivery
        ``merge_run(ts, k, [T, ...])`` folds a batch frame provably ready
        in order into ``(new_ts, raised_keys | None)``; ``blocked_many``
        (same arguments) proves no buffered update of ``k`` turns ready
        at any frontier up to ``ts``.  ``None`` / ``False`` mean "cannot
        prove" (all a policy with no proof cheaper than member by member
        need answer).  Fallback: enqueue the frame, drain member by member.

    Stabilization (the GST layer, :mod:`repro.gst`)
        ``stabilizing: bool`` -- when true the engine splits *applied*
        from *visible* state: updates apply immediately (FIFO per
        sender) but reads serve the global-stabilization cut.  A
        stabilizing policy must also provide ``update_timestamp(ts,
        dst)`` (the compact per-destination wire timestamp attached to
        outgoing updates), ``own_clock(ts)`` (the scalar Lamport
        clock), ``stabilization_clock(src, T)`` (the sender clock
        carried by a received update), ``merge_clock(ts, clock)`` (fold
        a clock heard via a stabilize frame into the local timestamp)
        and ``sent_count(ts, dst)`` (how many updates this replica has
        dispatched toward ``dst`` -- the bound that personalizes each
        stabilize frame).
        Fallback: ``stabilizing = False`` -- reads serve applied state
        directly and no stabilize traffic is emitted.
    """

    replica_id: ReplicaId

    def initial(self) -> Timestamp:
        """Suitably initialized timestamp ``tau_i``."""
        ...

    def advance(self, ts: Timestamp, register: RegisterName) -> Timestamp:
        """``advance(i, tau_i, x, v)`` -- called on a local write."""
        ...

    def merge(self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp) -> Timestamp:
        """``merge(i, tau_i, k, tau_k)`` -- called when applying an update."""
        ...

    def ready(self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp) -> bool:
        """Predicate ``J(i, tau_i, k, tau_k)``."""
        ...

    def counters(self) -> int:
        """Number of counters this policy maintains (metadata size)."""
        ...


class EdgeIndexedPolicy:
    """The paper's algorithm (Section 3.3) over an explicit edge set.

    Parameters
    ----------
    graph:
        The share graph.
    replica_id:
        The replica this policy belongs to.
    edges:
        The edge index set.  Defaults to the replica's timestamp graph
        ``E_i`` (exact per Definition 5).  Passing a different set yields
        the baselines: *all* share-graph edges gives Full-Track, a
        hoop-derived set gives the Helary-Milani comparison, a subset
        missing a required edge gives the Theorem 8 necessity experiments.
    max_loop_len:
        Forwarded to the timestamp-graph computation when ``edges`` is not
        given (bounded-loop variant of Appendix D).

    Subclassing note
    ----------------
    The delivery engine consults :meth:`blocking_edge` to learn which of
    this replica's counters a failed predicate ``J`` is waiting on; a
    subclass whose overridden :meth:`ready` can be false while the base
    predicate's sequence conjunct is not the reason must override
    :meth:`blocking_edge` to match.  Dropping the third-party clause, as
    :class:`~repro.baselines.ablations.NoThirdPartyCheckPolicy` does,
    leaves the hook right (the sequence conjunct is tested first) but
    lets a merge raise another sender's ``e_ji``, so that subclass
    reports an unknown :meth:`merge_delta`.
    ``advance``/``merge`` delegate to :meth:`advance_delta` /
    :meth:`merge_delta` (which additionally report the changed keys), so
    a subclass that wants different update semantics overrides the
    ``*_delta`` variant and gets the plain method for free.  A subclass
    that weakens the sender-edge gap check (accepting updates other than
    the exact next one on ``e_ki``) must also set
    :attr:`exact_sender_fifo` to ``False``.  The frame hooks
    (:meth:`merge_run`, :meth:`blocked_many`) prove *this* class's ``J``
    and fold *this* class's merge, so a subclass overriding :meth:`ready`
    or :meth:`merge_delta` gets their "cannot prove" answer.
    """

    #: Predicate J accepts only the sender's exact-next update on edge
    #: ``e_ki`` (``tau[e_ki] == T[e_ki] - 1``), so the delivery engine may
    #: index each sender's queue by that counter and skip linear scans.
    exact_sender_fifo = True

    #: Registry / wire identity (see :class:`TimestampPolicy` docs).
    policy_tag = "edge"

    #: Edge-indexed delivery is causal at apply time: no visibility cut.
    stabilizing = False

    def __init__(
        self,
        graph: ShareGraph,
        replica_id: ReplicaId,
        edges: Optional[Iterable[Edge]] = None,
        max_loop_len: Optional[int] = None,
    ) -> None:
        if replica_id not in graph:
            raise ConfigurationError(f"replica {replica_id!r} not in share graph")
        self.graph = graph
        self.replica_id = replica_id
        if edges is None:
            tg = timestamp_graph(graph, replica_id, max_loop_len=max_loop_len)
            self.edges: FrozenSet[Edge] = tg.edges
        else:
            self.edges = frozenset(edges)
        incident_in = frozenset(
            (n, replica_id) for n in graph.neighbors(replica_id)
        )
        incident_out = frozenset(
            (replica_id, n) for n in graph.neighbors(replica_id)
        )
        missing = (incident_in | incident_out) - self.edges
        if missing:
            # Incident edges are always necessary (Theorem 8 cases 1-2);
            # dropping them is allowed only for the necessity experiments,
            # which construct the policy through `unsafe_with_edges`.
            raise ConfigurationError(
                f"edge set for replica {replica_id!r} is missing incident "
                f"edges: {sorted(map(str, missing))}"
            )
        self._incoming: Tuple[Edge, ...] = tuple(sorted(
            incident_in, key=lambda e: (str(e[0]), str(e[1]))
        ))
        self._build_plans()

    @classmethod
    def unsafe_with_edges(
        cls,
        graph: ShareGraph,
        replica_id: ReplicaId,
        edges: Iterable[Edge],
    ) -> "EdgeIndexedPolicy":
        """Build a policy over an arbitrary edge set, skipping validation.

        Exists so the Theorem 8 experiments can deliberately drop edges the
        theorem proves necessary and observe the resulting violation.
        """
        policy = cls.__new__(cls)
        policy.graph = graph
        policy.replica_id = replica_id
        policy.edges = frozenset(edges)
        policy._incoming = tuple(sorted(
            (
                (n, replica_id)
                for n in graph.neighbors(replica_id)
                if (n, replica_id) in policy.edges
            ),
            key=lambda e: (str(e[0]), str(e[1])),
        ))
        policy._build_plans()
        return policy

    # ------------------------------------------------------------------
    # Precomputed position plans (the hot-path engine)
    # ------------------------------------------------------------------
    def _build_plans(self) -> None:
        i = self.replica_id
        eindex = EdgeIndex.of(self.edges)
        self._eindex: EdgeIndex = eindex
        self._zero: Timestamp = Timestamp.from_array(
            eindex, (0,) * len(eindex)
        )
        # advance: register -> sorted positions of out-edges (i, k), x in X_ik.
        bumps: Dict[RegisterName, List[int]] = {}
        for k in self.graph.neighbors(i):
            pos = eindex.position.get((i, k))
            if pos is not None:
                for x in self.graph.shared(i, k):
                    bumps.setdefault(x, []).append(pos)
        self._bumps: Dict[RegisterName, Tuple[int, ...]] = {
            x: tuple(sorted(ps)) for x, ps in bumps.items()
        }
        # The same bumps as lane-packed addends (one per bumped lane),
        # built on a register's first advance of a packed timestamp.
        self._bump_lanes: Dict[RegisterName, int] = {}
        # merge / ready: per-sender-index plans, built lazily (one sender
        # index is shared by every message from that sender, so each plan
        # is computed once per run).
        self._merge_plans: Dict[EdgeIndex, Tuple] = {}
        self._ready_plans: Dict[
            Tuple[ReplicaId, EdgeIndex],
            Tuple[Optional[int], Optional[int], Tuple[Tuple[int, int], ...]],
        ] = {}
        # next_seq / sender_seq: where the sender edge sits on each side
        # (the sender's side is compiled on its first message).
        self._seq_pos: Dict[ReplicaId, int] = {
            e[0]: eindex.position[e] for e in self._incoming
        }
        self._sender_seq_pos: Dict[
            ReplicaId, Tuple[EdgeIndex, Optional[int]]
        ] = {}
        # The top bits of the incoming lanes (_third_mask).
        self._incoming_mask: Optional[int] = None

    def _merge_plan(
        self, sender_index: EdgeIndex
    ) -> Tuple[Tuple[int, int], ...]:
        """Position pairs ``(own, sender)`` over ``E_i ∩ E_k``."""
        plan = self._merge_plans.get(sender_index)
        if plan is None:
            sender_position = sender_index.position
            plan = self._merge_plans[sender_index] = tuple(
                (pos, sender_position[e])
                for pos, e in enumerate(self._eindex.order)
                if e in sender_position
            )
        return plan

    def _ready_plan(
        self, sender: ReplicaId, sender_index: EdgeIndex
    ) -> Tuple[Optional[int], Optional[int], Tuple[Tuple[int, int], ...]]:
        key = (sender, sender_index)
        plan = self._ready_plans.get(key)
        if plan is None:
            e_ki = (sender, self.replica_id)
            own_pos = self._eindex.position.get(e_ki)
            sender_pos = sender_index.position.get(e_ki)
            if own_pos is None or sender_pos is None:
                # The sender edge is not tracked by both sides: the gap
                # check is vacuous (only reachable for crippled policies).
                own_pos = sender_pos = None
            third = tuple(
                (self._eindex.position[e], sender_index.position[e])
                for e in self._incoming
                if e[0] != sender and e in sender_index.position
            )
            plan = self._ready_plans[key] = (own_pos, sender_pos, third)
        return plan

    def _third_mask(self, sender: ReplicaId) -> int:
        """The top bits of ``sender``'s third-party lanes: the incoming
        lanes' but the sender's (one mask per policy, not per sender)."""
        mask = self._incoming_mask
        if mask is None:
            position = self._eindex.position
            mask = self._incoming_mask = sum(
                1 << (position[e] << 5 | 31) for e in self._incoming
            )
        pos = self._seq_pos.get(sender)
        return mask if pos is None else mask ^ (1 << (pos << 5 | 31))

    # ------------------------------------------------------------------
    def initial(self) -> Timestamp:
        return self._zero

    def advance(self, ts: Timestamp, register: RegisterName) -> Timestamp:
        return self.advance_delta(ts, register)[0]

    def advance_delta(
        self, ts: Timestamp, register: RegisterName
    ) -> Tuple[Timestamp, Optional[FrozenSet[Edge]]]:
        """``advance`` plus the set of keys it changed (``None`` = unknown).

        The delta comes for free from the bump table, saving the delivery
        engine a full post-hoc scan when computing its wake set.  A wide
        result is born from lanes, unless a bump fills a lane's top bit.
        """
        eindex = self._eindex
        if ts._eindex is not eindex:
            raise self._foreign(ts)
        positions = self._bumps.get(register)
        if not positions:
            return ts, frozenset()
        order = eindex.order
        keys = frozenset(order[pos] for pos in positions)
        if len(order) >= LANE_MIN_WIDTH and ts._pack() is not None:
            bump = self._bump_lanes.get(register)
            if bump is None:
                bump = self._bump_lanes[register] = sum(
                    1 << (pos << 5) for pos in positions
                )
            packed = ts._packed + bump
            if not packed & eindex.lanes()[0]:
                return self._born(ts, packed), keys
        old_values = ts._values or ts.values_array
        values = list(old_values)
        for pos in positions:
            values[pos] += 1
        out = Timestamp.from_array(eindex, values)
        if ts._wire_size is not None:
            size = ts._wire_size
            for pos in positions:
                nv = values[pos]
                ov = old_values[pos]
                # counters < 128 (the common case) encode in one byte
                if nv >= 128 or ov >= 128:
                    size += _uvarint_size(nv) - _uvarint_size(ov)
            out._wire_size = size
        return out, keys

    def merge(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> Timestamp:
        return self.merge_delta(ts, sender, sender_ts)[0]

    def merge_delta(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> Tuple[Timestamp, Optional[Container[Edge]]]:
        """``merge`` plus the keys it raised (``None`` = unknown).

        The changed positions are collected during the element-wise max
        walk itself, so the delivery engine's wake set costs no second
        pass over the counters.  A wide sender on this policy's own index
        is merged in lanes (:meth:`_lane_diff`): under ``held - (held >>
        31)`` the difference is ``a - b`` where own holds and 0 where the
        sender raises, so adding it to ``b`` makes each lane ``max(a, b)``.
        """
        eindex = self._eindex
        if ts._eindex is not eindex:
            raise self._foreign(ts)
        if sender_ts._eindex is eindex and len(eindex.order) >= LANE_MIN_WIDTH:
            diff = self._lane_diff(ts, sender_ts)
            if diff is not None:
                top_bits = eindex.lanes()[0]
                held = diff & top_bits
                if held == top_bits:
                    return ts, frozenset()
                merged = sender_ts._packed + (diff & (held - (held >> 31)))
                return self._born(ts, merged), RaisedLanes(eindex, held)
        values = ts._values or ts.values_array
        sender_values = sender_ts._values or sender_ts.values_array
        out: Optional[List[int]] = None
        changed: List[int] = []
        for pos, sender_pos in self._merge_plan(sender_ts._eindex):
            v = sender_values[sender_pos]
            if v > values[pos]:
                if out is None:
                    out = list(values)
                out[pos] = v
                changed.append(pos)
        if out is None:
            return ts, frozenset()
        new_ts = Timestamp.from_array(eindex, out)
        if ts._wire_size is not None:
            size = ts._wire_size
            for pos in changed:
                nv = out[pos]
                ov = values[pos]
                if nv >= 128 or ov >= 128:
                    size += _uvarint_size(nv) - _uvarint_size(ov)
            new_ts._wire_size = size
        order = eindex.order
        return new_ts, frozenset(order[pos] for pos in changed)

    def _foreign(self, ts: Timestamp) -> ProtocolError:
        """The refusal of a local timestamp this policy did not produce:
        interning gives every timestamp over ``E_i`` this policy's own
        index, so another index is another edge set -- a caller bug.  (A
        *sender's* index may differ freely; that is paired by plan.)"""
        return ProtocolError(
            f"policy of replica {self.replica_id!r} was handed a local "
            f"timestamp over {sorted(map(str, ts.index))}, not its own "
            f"edge set {sorted(map(str, self.edges))}"
        )

    def _born(self, ts: Timestamp, packed: int) -> Timestamp:
        """The ending of every lane path: ``packed`` as a timestamp born
        from lanes, keeping ``ts``'s wire-size memo when no lane changed
        in bits 7-30 (which fix a counter's varint length)."""
        out = Timestamp._from_lanes(self._eindex, packed)
        moved = packed ^ ts._packed  # type: ignore[operator]
        if ts._wire_size is not None and not moved & self._eindex.lanes()[2][0]:
            out._wire_size = ts._wire_size
        return out

    def _lane_diff(self, ts: Timestamp, sender_ts: Timestamp) -> Optional[int]:
        """``ts``'s lanes, top bits set, minus ``sender_ts``'s on this
        policy's own index (``None`` if a counter overflows a lane): lane
        ``p`` is ``2**31 + a - b`` in ``[1, 2**32)``, so no lane borrows and
        the top bit survives exactly where ``a >= b``."""
        if sender_ts._eindex is not self._eindex:
            return None
        own = ts._packed or ts._pack()  # (an all-zero 0 returns itself)
        theirs = sender_ts._packed or sender_ts._pack()
        if own is None or theirs is None:
            return None
        return (own | self._eindex.lanes()[0]) - theirs

    def ready(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> bool:
        if ts._eindex is not self._eindex:
            raise self._foreign(ts)
        values, sender_values = ts._values, sender_ts._values
        if values is None or sender_values is None:
            diff = self._lane_diff(ts, sender_ts)
            if diff is not None:
                pos = self._seq_pos.get(sender)
                if pos is not None and (
                    diff >> (pos << 5) & 0xFFFFFFFF != 0x7FFFFFFF
                ):
                    return False
                mask = self._third_mask(sender)
                return diff & mask == mask
            values, sender_values = ts.values_array, sender_ts.values_array
        own_pos, sender_pos, third = self._ready_plan(
            sender, sender_ts._eindex
        )
        if (
            own_pos is not None
            and values[own_pos] != sender_values[sender_pos] - 1
        ):
            return False
        for pos, spos in third:
            if values[pos] < sender_values[spos]:
                return False
        return True

    def _lane_block(self, diff: int, sender: ReplicaId) -> Edge:
        """:meth:`blocking_edge` over :meth:`_lane_diff`'s lanes: the sender
        edge unless its lane reads ``2**31 - 1``, else the first third
        party, in the walk's order, whose lane lost its top bit."""
        eindex = self._eindex
        pos = self._seq_pos.get(sender)
        if pos is not None and diff >> (pos << 5) & 0xFFFFFFFF != 0x7FFFFFFF:
            return eindex.order[pos]
        top_bytes = diff.to_bytes(eindex.lanes()[1].size, "little")[3::4]
        return next(
            e for e in self._incoming
            if e[0] != sender and top_bytes[eindex.position[e]] < 0x80
        )

    def _lane_frame(
        self,
        ts: Timestamp,
        sender: ReplicaId,
        sender_timestamps: Sequence[Timestamp],
    ) -> Optional[Tuple[int, int, int]]:
        """``(sender-edge position, top bits of the sender's third-party
        lanes, ts's lanes)`` when the frame hooks can serve this frame,
        else ``None``.  :meth:`merge_delta`'s gate, frame-wide -- ``ts``
        and every member on this policy's own index, of
        :data:`LANE_MIN_WIDTH` counters or more -- plus this class's own
        ``J`` and merge (a subclass overriding either gets ``None``) and
        a tracked sender edge, without which there is no gap check."""
        eindex = self._eindex
        seq_pos = self._seq_pos.get(sender)
        if (
            seq_pos is None
            or ts._eindex is not eindex
            or len(eindex) < LANE_MIN_WIDTH
            or type(self).ready is not EdgeIndexedPolicy.ready
            or type(self).merge_delta is not EdgeIndexedPolicy.merge_delta
        ):
            return None
        for member in sender_timestamps:
            if member._eindex is not eindex:
                return None
        own = ts._pack()
        if own is None:
            return None
        return seq_pos, self._third_mask(sender), own

    def merge_run(
        self,
        ts: Timestamp,
        sender: ReplicaId,
        sender_timestamps: Sequence[Timestamp],
    ) -> Optional[Tuple[Timestamp, Optional[Container[Edge]]]]:
        """Fold a consecutively-ready frame into ``(post-frame timestamp,
        raised keys)``, byte-identical to ``ready`` + ``merge_delta``
        member by member.  ``None`` -- :meth:`_lane_frame` declines, a
        counter is outside the lane range, or a member is not provably
        ready in order -- means the generic enqueue-and-drain path;
        nothing is ever half folded.

        Per member, the sender edge must read one more than the member
        before it; then one subtraction answers ``J``'s third-party
        clause against the running max (the counters as of the previous
        member) and :meth:`merge_delta`'s select.  The running max is a
        max of in-range lanes, so it never sets a top bit, and the fold
        ends as a single lane merge does.  The caller folds only when no
        buffered update could apply between members.
        """
        plan = self._lane_frame(ts, sender, sender_timestamps)
        if plan is None:
            return None
        seq_pos, third_mask, own = plan
        top_bits = self._eindex.lanes()[0]
        seq = ts._at(seq_pos)
        running = own
        for member in sender_timestamps:
            seq += 1
            theirs = member._pack() if member._at(seq_pos) == seq else None
            if theirs is None:
                return None
            diff = (running | top_bits) - theirs
            held = diff & top_bits
            if held & third_mask != third_mask:
                return None
            running = theirs + (diff & (held - (held >> 31)))
        held = ((own | top_bits) - running) & top_bits
        if held == top_bits:
            return ts, frozenset()
        return self._born(ts, running), RaisedLanes(self._eindex, held)

    def blocked_many(
        self,
        ts: Timestamp,
        sender: ReplicaId,
        sender_timestamps: Sequence[Timestamp],
    ) -> bool:
        """True when provably no member satisfies ``J`` at any frontier
        between the current timestamp and ``ts`` (inclusive); ``False``
        means "cannot prove", never "ready".

        Counters only grow and ``own + 1 == seq`` makes ``own`` pass
        through ``seq - 1``, so a member ready at *some* frontier up to
        ``ts`` has ``seq <= ts[e_ki] + 1`` and third-party counters that
        ``ts`` dominates (:meth:`merge_run`'s lane test; a member that
        needs it but is outside the lane range cannot be proved).
        """
        plan = self._lane_frame(ts, sender, sender_timestamps)
        if plan is None:
            return False
        seq_pos, third_mask, own = plan
        own |= self._eindex.lanes()[0]
        reachable = ts._at(seq_pos) + 1
        for member in sender_timestamps:
            if member._at(seq_pos) <= reachable:
                theirs = member._pack()
                if theirs is None or (own - theirs) & third_mask == third_mask:
                    return False
        return True

    def blocking_edge(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> Edge:
        """The counter the first false conjunct of ``J`` reads.

        Only defined while :meth:`ready` is false, and walked in
        :meth:`ready`'s order: ``e_ki`` when the sequence conjunct fails,
        else the first third-party edge ``tau`` does not dominate.  Off
        the hot path (the engine asks once per blocked sender), so one
        edge-keyed walk serves native and foreign indexes alike -- but a
        timestamp held as lanes is read in lanes, not unpacked.
        """
        diff = self._lane_diff(ts, sender_ts) if ts._values is None else None
        if diff is not None:
            return self._lane_block(diff, sender)
        e_ki = (sender, self.replica_id)
        own, incoming = ts.get(e_ki), sender_ts.get(e_ki)
        if own is not None and incoming is not None and own != incoming - 1:
            return e_ki
        return self._third_party_block(ts, sender, sender_ts)

    def _third_party_block(
        self, ts: Timestamp, sender: ReplicaId, sender_ts: Timestamp
    ) -> Edge:
        """First third-party edge ``tau`` does not dominate."""
        return next(
            e for e in self._incoming
            if e[0] != sender and ts[e] < (sender_ts.get(e) or 0)
        )

    def sender_seq(
        self, sender: ReplicaId, sender_ts: Timestamp
    ) -> Optional[int]:
        """``T[e_ki]``: the sender-edge sequence number of an update.

        Strictly increasing across the updates replica ``i`` receives from
        ``sender`` (every such update bumps ``e_ki``), so it keys the
        delivery engine's per-sender queue index.  ``None`` when the edge
        is untracked (crippled policies only).
        """
        cached = self._sender_seq_pos.get(sender)
        if cached is None or cached[0] is not sender_ts._eindex:
            cached = self._sender_seq_pos[sender] = (
                sender_ts._eindex,
                sender_ts._eindex.position.get((sender, self.replica_id)),
            )
        pos = cached[1]
        if pos is None:
            return None
        values = sender_ts._values
        return sender_ts._at(pos) if values is None else values[pos]

    def next_seq(self, ts: Timestamp, sender: ReplicaId) -> Optional[int]:
        """Sender-edge value the next applicable update must carry."""
        if ts._eindex is not self._eindex:
            raise self._foreign(ts)
        pos = self._seq_pos.get(sender)
        if pos is None:
            return None
        values = ts._values
        return (ts._at(pos) if values is None else values[pos]) + 1

    def counters(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return (
            f"EdgeIndexedPolicy(replica={self.replica_id!r}, "
            f"|E_i|={len(self.edges)})"
        )


def edge_policy_factory(
    graph: ShareGraph, max_loop_len: Optional[int] = None
) -> Callable[[ShareGraph, ReplicaId], EdgeIndexedPolicy]:
    """The default policy factory of every runtime: the paper's policy
    over each replica's exact (or, Appendix D, loop-bounded) timestamp
    graph, all computed up front with one shared loop-finder cache."""
    graphs = all_timestamp_graphs(graph, max_loop_len=max_loop_len)

    def factory(g: ShareGraph, rid: ReplicaId) -> EdgeIndexedPolicy:
        return EdgeIndexedPolicy(g, rid, edges=graphs[rid].edges)

    return factory
