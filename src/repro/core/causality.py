"""Happened-before tracking (Definition 1) and causal pasts (Definition 6).

:class:`History` is an append-only log of *issue* and *apply* events.  It is
maintained by the system wiring, **outside** the replicas, so the
consistency checker never trusts protocol metadata: happened-before is
recomputed from the definition alone.

Definition 1: ``u1 -> u2`` iff u1 was applied at some replica before that
same replica issued u2, closed transitively.  Because issuing an update
also applies it at the issuer (Section 2.1, step 2), the causal past of an
update is exactly the set of updates applied at its issuer at issue time.
One issuer's updates therefore form a *chain*, and any causal past cut
down to one issuer is a prefix of that chain: a past is one chain position
per issuer, a *frontier*, held as 32-bit lanes of one int (the layout of
``Timestamp._packed``).  Each update stores its *closure* -- its issuer's
frontier just after issue -- and applying it raises the applier's
frontier to the lane max of the two: constant work per event, however
long the run.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.errors import ProtocolError
from repro.types import RegisterName, ReplicaId, UpdateId

# Recording builds records with ``tuple.__new__``: half the cost of a
# NamedTuple's own ``__new__``, a Python function.
_new = tuple.__new__


def lane(frontier: int, slot: int) -> int:
    """The chain position a frontier holds for the issuer in ``slot``."""
    return (frontier >> (slot << 5)) & 0xFFFFFFFF


def lane_max(a: int, b: int, top: int) -> int:
    """The lane-wise max of two frontiers whose lanes' top bits are clear
    (``top`` holds the top bit of every lane either uses): the identity of
    ``docs/performance.md`` section 8."""
    diff = (a | top) - b
    held = diff & top
    if held == top:
        return a
    return b + (diff & (held - (held >> 31)))


class UpdateRecord(NamedTuple):
    """Static facts about one update, fixed at issue time."""

    uid: UpdateId
    register: RegisterName
    issue_time: float
    metadata_only: bool = False


class AccessToken(NamedTuple):
    """Snapshot of a replica's state at the moment it served a client.

    Under unreliable channels a response may reach its client long after
    it was produced (retries, duplicates) -- or never.  The serving
    replica snapshots a token and the access is recorded only when the
    client *accepts* the response, against the serve-time state: the
    client's causal past grows by exactly what the response's timestamp
    conveyed, no more.

    ``position`` is the number of events logged at the serve (the checker
    replays the replica's applies up to there), ``closure`` the replica's
    frontier then.  A token is redeemed at the replica that issued it.
    """

    position: int
    closure: int


class HistoryEvent(NamedTuple):
    """One issue/apply/access occurrence, in global log order.

    ``access`` events (client-server architecture, Definition 25) carry a
    ``client`` and no ``uid``: they mark a client's read/write completing
    at a replica, which propagates that replica's causal past to the
    client.  When the completion is recorded later than the serve (lossy
    channels: the client accepts a possibly-retransmitted response), the
    event carries the serve-time :class:`AccessToken` so the checker
    judges the access against the state that actually produced it.
    """

    kind: str  # "issue" | "apply" | "visible" | "access"
    replica: ReplicaId
    uid: Optional[UpdateId]
    time: float
    position: int  # global sequence number in record order
    client: Optional[object] = None
    token: Optional[AccessToken] = None


class History:
    """Append-only issue/apply log with happened-before queries.

    Read-only to its readers (checker, sync, audits): updates numbered in
    issue order (``index``, ``order``), replicas given lane slots when first
    seen (``slot_of``, ``replicas``, ``top`` for :func:`lane_max`).  Update
    ``i`` has ``closures[i]``, issuer slot ``slots[i]``, chain position
    ``seqs[i]`` (record order at the issuer, never ``UpdateId.seq``: merged
    WALs interleave incarnations) and its appliers (viewers) as slot bits
    of ``applied_by[i]`` (``visible_by[i]``); ``accesses`` lists the access
    events' positions.
    """

    def __init__(self) -> None:
        self.events: List[HistoryEvent] = []
        self.updates: Dict[UpdateId, UpdateRecord] = {}
        self.index: Dict[UpdateId, int] = {}
        self.order: List[UpdateId] = []
        self.closures: List[int] = []
        self.slots: List[int] = []
        self.seqs: List[int] = []
        self.applied_by: List[int] = []
        self.visible_by: Dict[int, int] = {}
        self.slot_of: Dict[ReplicaId, int] = {}
        self.replicas: List[ReplicaId] = []
        self._chains: List[List[int]] = []  # per slot: its updates, in order
        self.accesses: List[int] = []
        self._front: List[int] = []  # per slot: the replica's frontier
        self.top = 0
        self._client_front: Dict[object, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_issue(
        self,
        replica: ReplicaId,
        uid: UpdateId,
        register: RegisterName,
        time: float,
        metadata_only: bool = False,
        client: Optional[object] = None,
    ) -> None:
        """Record replica *replica* issuing ``uid`` (which also applies it).

        In the client-server architecture a write is issued on behalf of a
        ``client``; the update's causal past then additionally contains
        everything the client picked up at previously accessed replicas
        (Definition 25, condition (ii)).
        """
        if uid.issuer != replica:
            raise ProtocolError(
                f"update {uid} issued at {replica!r} but names issuer {uid.issuer!r}"
            )
        i = len(self.order)
        if self.index.setdefault(uid, i) != i:
            raise ProtocolError(f"update {uid} issued twice")
        s = self.slot_of.get(replica)
        if s is None:
            s = self._add_replica(replica)
        front = self._front[s]
        if client is not None:
            picked = self._client_front.get(client)
            if picked:
                front = lane_max(front, picked, self.top)
        # The issuer's own lane is its chain's length; bumped, this position.
        chain = self._chains[s]
        closure = front + (1 << (s << 5))
        chain.append(i)
        self.order.append(uid)
        self.closures.append(closure)
        self.slots.append(s)
        self.seqs.append(len(chain))
        # Issuing applies the update at the issuer (prototype step 2).
        self.applied_by.append(1 << s)
        self._front[s] = closure
        self.updates[uid] = _new(UpdateRecord, (uid, register, time, metadata_only))
        event = ("issue", replica, uid, time, len(self.events), client, None)
        self.events.append(_new(HistoryEvent, event))

    def access_token(self, replica: ReplicaId) -> AccessToken:
        """Snapshot *replica*'s state for a deferred client-access record.

        Taken when a replica serves a request; passed back to
        :meth:`record_client_access` when the client accepts the response
        (possibly much later under lossy channels).
        """
        return AccessToken(len(self.events), self.frontier(replica))

    def record_client_access(
        self,
        client: object,
        replica: ReplicaId,
        time: float,
        token: Optional[AccessToken] = None,
    ) -> None:
        """Record client *client* completing an operation at *replica*.

        The client's causal past grows by the replica's: any update the
        client later issues (anywhere) will causally depend on everything
        applied at this replica so far (Definition 25, condition (ii)).
        With ``token``, the access is judged and the past grown against
        the replica's serve-time snapshot rather than its current state
        (the response travelled; the replica may have moved on).
        """
        self.accesses.append(len(self.events))
        self.events.append(
            HistoryEvent(
                "access", replica, None, time, len(self.events),
                client=client, token=token,
            )
        )
        growth = token.closure if token is not None else self.frontier(replica)
        self._client_front[client] = lane_max(
            self._client_front.get(client, 0), growth, self.top
        )

    def record_apply(self, replica: ReplicaId, uid: UpdateId, time: float) -> None:
        """Record replica *replica* applying a remote update ``uid``."""
        i = self.index.get(uid)
        if i is None:
            raise ProtocolError(f"update {uid} applied before being issued")
        s = self.slot_of.get(replica)
        if s is None:
            s = self._add_replica(replica)
        applied = self.applied_by[i]
        if applied >> s & 1:  # pragma: no cover - guard
            raise ProtocolError(f"update {uid} applied twice at {replica!r}")
        self.applied_by[i] = applied | (1 << s)
        event = ("apply", replica, uid, time, len(self.events), None, None)
        self.events.append(_new(HistoryEvent, event))
        front = self._front
        front[s] = lane_max(front[s], self.closures[i], self.top)

    def record_visible(
        self, replica: ReplicaId, uid: UpdateId, time: float
    ) -> None:
        """Record ``uid`` becoming *readable* at *replica*.

        Stabilizing policies (GST) split apply from visibility: an update
        is applied the moment it arrives (per-channel FIFO) but serves
        reads only once the global-stabilization cut passes its clock.
        Happened-before is unaffected -- Definition 1 is about applies --
        but the checker's visibility mode verifies Definition 2 safety at
        these events instead of the applies.
        """
        i = self.index.get(uid)
        if i is None:
            raise ProtocolError(f"update {uid} visible before being issued")
        bit = 1 << self.slot_of.get(replica, len(self.replicas))
        if not self.applied_by[i] & bit:
            raise ProtocolError(
                f"update {uid} visible at {replica!r} before being applied"
            )
        visible = self.visible_by.get(i, 0)
        if visible & bit:  # pragma: no cover - guard
            raise ProtocolError(f"update {uid} visible twice at {replica!r}")
        self.events.append(
            HistoryEvent("visible", replica, uid, time, len(self.events))
        )
        self.visible_by[i] = visible | bit

    def _add_replica(self, replica: ReplicaId) -> int:
        s = self.slot_of[replica] = len(self.replicas)
        self.replicas.append(replica)
        self._chains.append([])
        self._front.append(0)
        self.top |= 1 << ((s << 5) + 31)
        return s

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def frontier(self, replica: ReplicaId) -> int:
        """The replica's closure frontier: its applies and their pasts."""
        s = self.slot_of.get(replica)
        return 0 if s is None else self._front[s]

    def past(self, i: int) -> int:
        """The causal-past frontier of update number ``i``: its closure
        with its own lane one short."""
        return self.closures[i] - (1 << (self.slots[i] << 5))

    def holds(self, frontier: int, uid: UpdateId) -> bool:
        """Whether ``frontier`` contains ``uid``: one lane read."""
        i = self.index[uid]
        return self.seqs[i] <= lane(frontier, self.slots[i])

    def frontier_updates(self, frontier: int) -> List[UpdateId]:
        """The updates a frontier holds -- a union of chain prefixes -- in
        issue order."""
        chains = enumerate(self._chains)
        held = sorted(i for s, chain in chains for i in chain[: lane(frontier, s)])
        return [self.order[i] for i in held]

    def happened_before(self, u1: UpdateId, u2: UpdateId) -> bool:
        """``u1 -> u2`` per Definition 1."""
        i1, i2 = self.index[u1], self.index[u2]
        # u2's closure differs from its past only in u2's own lane, where
        # it reads u2's position: u1 below that is u1 -> u2 unless u1 is u2.
        return i1 != i2 and self.seqs[i1] <= lane(self.closures[i2], self.slots[i1])

    def concurrent(self, u1: UpdateId, u2: UpdateId) -> bool:
        """Neither ``u1 -> u2`` nor ``u2 -> u1`` (and u1 != u2)."""
        return (
            u1 != u2
            and not self.happened_before(u1, u2)
            and not self.happened_before(u2, u1)
        )

    def causal_past(self, uid: UpdateId) -> FrozenSet[UpdateId]:
        """All updates that happened-before ``uid``."""
        return frozenset(self.frontier_updates(self.past(self.index[uid])))

    def replica_causal_past(self, replica: ReplicaId) -> FrozenSet[UpdateId]:
        """Set ``S`` of Definition 6 for the replica's current state.

        This is the set of updates applied at the replica plus everything
        that happened-before them (the latter is included automatically
        because applying ``u`` raises the frontier to ``u``'s closure).
        """
        return frozenset(self.frontier_updates(self.frontier(replica)))

    def client_causal_past(self, client: object) -> FrozenSet[UpdateId]:
        """All updates in the client's accumulated causal past."""
        return frozenset(
            self.frontier_updates(self._client_front.get(client, 0))
        )

    def _replicas_in(self, mask: int) -> FrozenSet[ReplicaId]:
        return frozenset(
            r for s, r in enumerate(self.replicas) if mask >> s & 1
        )

    def applied_at(self, uid: UpdateId) -> FrozenSet[ReplicaId]:
        """Replicas that have applied ``uid`` so far (issuer included)."""
        i = self.index.get(uid)
        return frozenset() if i is None else self._replicas_in(self.applied_by[i])

    def visible_at(self, uid: UpdateId) -> FrozenSet[ReplicaId]:
        """Replicas at which ``uid`` has become readable (GST cut)."""
        i = self.index.get(uid)
        return self._replicas_in(0 if i is None else self.visible_by.get(i, 0))

    def all_updates(self) -> Tuple[UpdateId, ...]:
        """Every issued update, in issue order."""
        return tuple(self.order)

    def updates_by(self, replica: ReplicaId) -> Tuple[UpdateId, ...]:
        """Updates issued by one replica, in issue order."""
        s = self.slot_of.get(replica)
        if s is None:
            return ()
        order = self.order
        return tuple(order[i] for i in self._chains[s])

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"History({len(self.order)} updates, {len(self.events)} events)"
