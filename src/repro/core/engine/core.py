""":class:`ProtocolCore`: the Section 2.1 prototype as a pure state machine.

One instance owns everything algorithmic about a replica -- the register
store, the timestamp plus its plan-compiled ``advance``/``merge`` fast
paths, the per-sender FIFO delivery queues with their readiness wake
sets, the value-debt ledger, and the pending-cap/gap backpressure -- and
*nothing* operational: no transport, no simulator, no history log.  The
runtime adapter feeds it events and receives typed effects through the
``emit`` callback, synchronously at the exact points the historical
implementations performed I/O, so adapter-observable traces are
byte-identical to the pre-extraction code.

Delivery engine
---------------
Step 4 of the prototype used to be a full rescan of one flat pending
list after every apply -- O(pending^2) under load.  The buffer is a FIFO
queue per sender plus a *blocking-counter index*: ``J`` is a conjunction
of per-counter tests and counters only grow, so an update that failed
``J`` stays unready until the counter its false conjunct reads changes.
The policy names that counter through the optional ``blocking_edge``
hook, the sender is filed under it, and only a change to it re-examines
the sender's queue (policies without the hook fall back to conservative
wake-everything, which reproduces the historical behaviour exactly).
Among all ready updates the engine still applies the globally
earliest-arrived first, so apply order -- and therefore every recorded
history -- is byte-identical to the original implementation, including
the naive rescan loops the asyncio and client-server runtimes used
before they became adapters.

Time is injected as a ``clock`` callable (the simulator's ``now``, the
asyncio loop clock, or a test stub); the core never asks a runtime for
it implicitly.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Any,
    Callable,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.engine.effects import (
    Applied,
    ConfirmApplied,
    Emit,
    EscalateSync,
    RecordHistory,
    RollbackChannels,
    Send,
    SendStabilize,
)
from repro.core.engine.metrics import QueueStats, ReplicaMetrics
from repro.core.engine.stabilization import StabilizationState, StabilizeFrame
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import Timestamp, TimestampPolicy
from repro.errors import ProtocolError, UnknownRegisterError
from repro.types import Edge, RegisterName, ReplicaId, Update, UpdateId
from repro.wire.codec import stabilize_frame_wire_bytes, timestamp_wire_bytes

# One buffered update: (update, arrival time, sender-edge sequence).
# Queues are dicts keyed by global arrival counter; insertion order is
# arrival order, so iterating a queue scans in arrival order and removal
# by key is O(1).
_PendingEntry = Tuple[Update, float, Optional[int]]

#: ``advance`` plus the changed keys (any container; ``None`` = unknown).
_AdvanceDelta = Callable[
    [Timestamp, RegisterName], Tuple[Timestamp, Optional[Container[Edge]]]
]
#: ``merge`` plus the raised keys (``None`` = unknown delta).
_MergeDelta = Callable[
    [Timestamp, ReplicaId, Timestamp],
    Tuple[Timestamp, Optional[Container[Edge]]],
]
#: The local counter the first false conjunct of ``J`` reads.
_BlockingEdge = Callable[[Timestamp, ReplicaId, Timestamp], Edge]
#: Whole-frame merge: the post-frame timestamp plus raised keys when the
#: frame is consecutively ready against an empty buffer, else None.
_MergeRun = Callable[
    [Timestamp, ReplicaId, Sequence[Timestamp]],
    Optional[Tuple[Timestamp, Optional[Container[Edge]]]],
]
#: Proof that no queued member can become ready at any frontier up to
#: the given timestamp (False = cannot prove, take the generic path).
_BlockedMany = Callable[
    [Timestamp, ReplicaId, Sequence[Timestamp]], bool
]
_SenderSeq = Callable[[ReplicaId, Timestamp], Optional[int]]
_NextSeq = Callable[[Timestamp, ReplicaId], Optional[int]]
#: Stabilizing-policy hooks (see the TimestampPolicy extended surface).
_UpdateTimestamp = Callable[[Timestamp, ReplicaId], Timestamp]
_OwnClock = Callable[[Timestamp], int]
_StabClock = Callable[[ReplicaId, Timestamp], int]
_MergeClock = Callable[[Timestamp, int], Timestamp]
#: One applied-but-unstable log entry:
#: (clock, apply order, uid, register, value, metadata_only, applied at).
_UnstableEntry = Tuple[
    int, int, UpdateId, RegisterName, Any, bool, float
]
#: Runtime-specific ``advance`` override (the client-server runtime
#: floors counters at the requesting client's timestamp).
AdvanceFn = Callable[[Timestamp, RegisterName], Timestamp]


class ProtocolCore:
    """The pure protocol state machine behind every runtime.

    Parameters
    ----------
    replica_id, graph, policy:
        Identity, the share graph (multicast recipients), and the
        timestamp policy (structure + ``advance``/``merge``/``J``).
    emit:
        Effect sink; invoked synchronously, may re-enter the core (e.g.
        an ``Applied`` handler issuing a follow-up ``local_write``).
    clock:
        Source of the current time, used for arrival stamps, apply-delay
        metrics, and history record times.
    record_history / emit_applied / emit_confirm:
        Gate the :class:`RecordHistory` / :class:`Applied` /
        :class:`ConfirmApplied` effects (and their allocations) so
        adapters only pay for effects they consume.  All three are
        mutable attributes.
    size_wire:
        Compute the memoized wire encoding size for ``Send`` effects
        (the simulator transport's metadata accounting); runtimes that
        do not account bytes switch it off.
    dummy_registers, track_timestamps:
        As for the historical :class:`repro.core.replica.Replica`.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        graph: ShareGraph,
        policy: TimestampPolicy,
        emit: Emit,
        clock: Callable[[], float],
        dummy_registers: AbstractSet[RegisterName] = frozenset(),
        track_timestamps: bool = False,
        record_history: bool = False,
        emit_applied: bool = False,
        emit_confirm: bool = False,
        size_wire: bool = True,
    ) -> None:
        self.replica_id = replica_id
        self.graph = graph
        self.policy = policy
        self._emit: Emit = emit
        self._clock: Callable[[], float] = clock
        self.record_history = record_history
        self.emit_applied = emit_applied
        self.emit_confirm = emit_confirm
        self.size_wire = size_wire
        self.dummy_registers: FrozenSet[RegisterName] = frozenset(
            dummy_registers
        )
        self.store: Dict[RegisterName, Any] = {
            x: None
            for x in graph.registers_at(replica_id)
            if x not in self.dummy_registers
        }
        self.timestamp: Timestamp = policy.initial()
        # Delivery engine state: per-sender FIFO queues, the senders whose
        # queues must be (re-)examined, and the cached ready-entry arrival
        # key per sender (valid until the sender is marked dirty again).
        self._queues: Dict[ReplicaId, Dict[int, _PendingEntry]] = {}
        self._pending_total = 0
        self._arrival = 0
        self._dirty: Set[ReplicaId] = set()
        self._candidates: Dict[ReplicaId, int] = {}
        # Blocking-counter index: counter -> senders to re-examine when it
        # changes (popped on wake; the re-examination files them again).
        self._blocked_on: Dict[Edge, Set[ReplicaId]] = {}
        # Per-sender map: sender-edge sequence -> arrival key.  ``None``
        # marks a sender whose queue cannot be seq-indexed (an update
        # without a sequence, or a duplicate) and falls back to scanning.
        self._seqmaps: Dict[ReplicaId, Optional[Dict[int, int]]] = {}
        self._blocking_edge: Optional[_BlockingEdge] = getattr(
            policy, "blocking_edge", None
        )
        self._advance_delta: Optional[_AdvanceDelta] = getattr(
            policy, "advance_delta", None
        )
        self._merge_delta: Optional[_MergeDelta] = getattr(
            policy, "merge_delta", None
        )
        self._sender_seq: Optional[_SenderSeq] = getattr(
            policy, "sender_seq", None
        )
        self._merge_run: Optional[_MergeRun] = getattr(
            policy, "merge_run", None
        )
        self._blocked_many: Optional[_BlockedMany] = getattr(
            policy, "blocked_many", None
        )
        self._next_seq: Optional[_NextSeq] = getattr(policy, "next_seq", None)
        self._fifo = bool(
            getattr(policy, "exact_sender_fifo", False)
            and self._sender_seq is not None
            and self._next_seq is not None
        )
        # Visibility-cut (GST) state: when the policy stabilizes, reads
        # serve ``visible_store`` -- the applied store restricted to the
        # global-stable prefix -- while applies land in ``store``
        # immediately and queue in the unstable log until the cut passes
        # their clock.
        self._stabilizing = bool(getattr(policy, "stabilizing", False))
        self.visible_store: Optional[Dict[RegisterName, Any]] = None
        self.stabilization: Optional[StabilizationState] = None
        self._unstable: List[_UnstableEntry] = []
        self._unstable_order = 0
        self.visible_cut = 0
        if self._stabilizing:
            self._update_timestamp: _UpdateTimestamp = policy.update_timestamp
            self._own_clock: _OwnClock = policy.own_clock
            self._stab_clock: _StabClock = policy.stabilization_clock
            self._merge_clock: _MergeClock = policy.merge_clock
            self._sent_count: Callable[[Timestamp, ReplicaId], int] = (
                policy.sent_count
            )
            self.visible_store = dict(self.store)
            self._stab_neighbors: Tuple[ReplicaId, ...] = tuple(
                sorted(graph.neighbors(replica_id), key=str)
            )
            # The gossip table spans this replica's connected component
            # only: a disconnected component shares no registers with us,
            # exchanges no frames, and would pin the cut at zero forever.
            component: Set[ReplicaId] = {replica_id}
            frontier: List[ReplicaId] = [replica_id]
            while frontier:
                nxt: List[ReplicaId] = []
                for r in frontier:
                    for k in graph.neighbors(r):
                        if k not in component:
                            component.add(k)
                            nxt.append(k)
                frontier = nxt
            self.stabilization = StabilizationState(
                replica_id, self._stab_neighbors, component
            )
        self.metrics = ReplicaMetrics()
        self.seq = 0
        self._timestamps_used: Optional[Set[Timestamp]] = (
            {self.timestamp} if track_timestamps else None
        )
        self._dummy_map: Dict[ReplicaId, FrozenSet[RegisterName]] = {}
        self.paused = False
        # Anti-entropy knobs (installed by repro.sync.SyncManager through
        # the adapter; all off by default so classic behaviour is
        # untouched).  ``sync_armed`` mirrors "an escalation handler is
        # installed": the stale-discard/gap pre-checks and the pending-cap
        # shed only run when something consumes ``EscalateSync``.
        self.pending_cap: Optional[int] = None
        self.gap_threshold: Optional[int] = None
        self.sync_armed = False
        self._value_debt: Dict[RegisterName, UpdateId] = {}

    # ------------------------------------------------------------------
    # Client operations (prototype steps 1-2)
    # ------------------------------------------------------------------
    def read(self, register: RegisterName) -> Any:
        """Step 1: return the local copy of ``register``.

        Under a stabilizing policy this serves the *visible* store (the
        global-stable prefix); applied-but-unstable values are readable
        only through :attr:`store` directly (debugging, store audits).
        """
        if register not in self.store:
            raise UnknownRegisterError(register, self.replica_id)
        if self.visible_store is not None:
            return self.visible_store[register]
        return self.store[register]

    def local_write(
        self,
        register: RegisterName,
        value: Any,
        payload: Any = None,
        advance: Optional[AdvanceFn] = None,
        client: Optional[object] = None,
    ) -> UpdateId:
        """Step 2: local write + advance + multicast; returns the update id.

        ``payload`` piggybacks opaque data on the update message (the
        virtual-register mechanism of Appendix D); it is delivered to the
        receivers' ``Applied`` effects.  ``advance`` overrides the
        policy's advance function for this write (the client-server
        runtime floors counters at the requesting client's timestamp);
        ``client`` attributes the issue record to a session.
        """
        if register not in self.store:
            raise UnknownRegisterError(register, self.replica_id)
        self.seq += 1
        uid = UpdateId(self.replica_id, self.seq)
        self.store[register] = value
        # The local write supersedes any outstanding value debt on the
        # register, exactly as a newer remote apply would (see _apply):
        # a stale redelivery paying the debt later would roll the store
        # back below this write.
        self._value_debt.pop(register, None)
        before = self.timestamp
        if advance is not None:
            self.timestamp = advance(before, register)
            self._wake_after_change(before, self.timestamp)
        elif self._advance_delta is not None:
            self.timestamp, changed = self._advance_delta(before, register)
            if self.timestamp is not before:
                self._wake_on_changed(changed)
        else:
            self.timestamp = self.policy.advance(before, register)
            self._wake_after_change(before, self.timestamp)
        self._note_timestamp()
        self.metrics.issued += 1
        if self.record_history:
            self._emit(
                RecordHistory("issue", uid, register, self._clock(), client)
            )
        ts = self.timestamp
        if self._stabilizing:
            # Own writes join the unstable log (reads serve the cut, so
            # even local writes wait for global stability) and each
            # recipient gets the compact per-channel wire timestamp --
            # the GST metadata economy -- instead of the full local one.
            order = self._unstable_order
            self._unstable_order = order + 1
            self._unstable.append(
                (
                    self._own_clock(ts),
                    order,
                    uid,
                    register,
                    value,
                    False,
                    self._clock(),
                )
            )
            emit = self._emit
            for k in self.graph.recipients(self.replica_id, register):
                declared = self._dummy_map.get(k)
                meta_only = (
                    declared is not None
                    and register in declared
                    and register in self.graph.registers_at(k)
                )
                ts_k = self._update_timestamp(ts, k)
                emit(
                    Send(
                        k,
                        Update(
                            uid=uid,
                            register=register,
                            value=None if meta_only else value,
                            timestamp=ts_k,
                            metadata_only=meta_only,
                            payload=payload,
                        ),
                        len(ts_k),
                        timestamp_wire_bytes(ts_k) if self.size_wire else 0,
                    )
                )
            return uid
        counters = len(ts)
        # timestamp_wire_bytes memoizes on the (immutable) timestamp, so a
        # fan-out of N recipients sizes the encoding once, not N times.
        wire = timestamp_wire_bytes(ts) if self.size_wire else 0
        emit = self._emit
        # Updates are immutable, so one object serves every recipient of
        # the same flavour (a dense fan-out otherwise allocates dozens of
        # identical copies per write).
        full_update: Optional[Update] = None
        meta_update: Optional[Update] = None
        for k in self.graph.recipients(self.replica_id, register):
            # Appendix D: replicas holding `register` only as a dummy
            # receive metadata without the value.
            declared = self._dummy_map.get(k)
            meta_only = (
                declared is not None
                and register in declared
                and register in self.graph.registers_at(k)
            )
            if meta_only:
                if meta_update is None:
                    meta_update = Update(
                        uid=uid,
                        register=register,
                        value=None,
                        timestamp=ts,
                        metadata_only=True,
                        payload=payload,
                    )
                update = meta_update
            else:
                if full_update is None:
                    full_update = Update(
                        uid=uid,
                        register=register,
                        value=value,
                        timestamp=ts,
                        metadata_only=False,
                        payload=payload,
                    )
                update = full_update
            emit(Send(k, update, counters, wire))
        return uid

    def set_dummy_map(
        self, mapping: Dict[ReplicaId, FrozenSet[RegisterName]]
    ) -> None:
        """Install the cluster-wide dummy-register map (system wiring)."""
        self._dummy_map = dict(mapping)

    # ------------------------------------------------------------------
    # Update reception (prototype steps 3-4)
    # ------------------------------------------------------------------
    def remote_update(self, src: ReplicaId, update: Update) -> None:
        """Steps 3-4: buffer the update only if ``J`` refuses it.

        At a drain fixpoint (nothing dirty, no candidate, not paused)
        every buffered update fails ``J``, so the arrival is the only
        update a drain could apply: next in sequence and admitted, it
        applies at once (the drain runs only for senders that woke);
        refused, it is buffered and filed; beyond the next sequence
        number, it is buffered unfiled (its predecessor's apply marks
        the sender dirty).  Any other arrival is buffered and drained.
        """
        arrived = self._clock()
        seq: Optional[int] = None
        want: Optional[int] = None
        if self._fifo:
            assert self._sender_seq is not None and self._next_seq is not None
            seq = self._sender_seq(src, update.timestamp)
            want = self._next_seq(self.timestamp, src)
        if seq is not None and want is not None:
            if self.sync_armed:
                if seq < want:
                    # At or below the delivery frontier: the content
                    # arrived via a snapshot install (or was applied and
                    # re-sent after a shed).  Never re-apply -- just
                    # settle any value debt and confirm so the sender's
                    # retransmission stops.
                    self._discard_stale(src, update)
                    return
                if (
                    self.gap_threshold is not None
                    and seq - want >= self.gap_threshold
                ):
                    # The sender is far ahead: the retransmit prefix was
                    # truncated or we are freshly recovered.  Catching up
                    # update-by-update would be O(history); escalate.
                    self._emit(EscalateSync("gap"))
            seqmap = self._seqmaps.get(src, ())  # (): nothing buffered
            if (
                not self._dirty
                and not self._candidates
                and not self.paused
                and seqmap is not None
                and seq not in seqmap
                and (
                    self.pending_cap is None
                    or not self.sync_armed
                    or self._pending_total + 1 < self.pending_cap
                )
            ):
                total = self._pending_total + 1
                if total > self.metrics.pending_high_water:
                    self.metrics.pending_high_water = total
                if seq != want or not self._judge(src, update):
                    self._enqueue(src, update, arrived, seq)
                    return
                if src in self._queues:
                    self._dirty.add(src)
                self._apply(src, update, arrived)
                if self._dirty:
                    self._drain()
                return
        self._enqueue(src, update, arrived, seq)
        self._dirty.add(src)
        if self._pending_total > self.metrics.pending_high_water:
            self.metrics.pending_high_water = self._pending_total
        if (
            self.pending_cap is not None
            and self.sync_armed
            and self._pending_total >= self.pending_cap
        ):
            # Backpressure: shed the whole buffer (the channel layer rolls
            # the deliveries back so nothing is lost) and escalate to a
            # state transfer instead of growing without bound.
            self.shed_pending()
            self._emit(EscalateSync("overflow"))
            return
        if not self.paused:
            self._drain()

    def remote_batch(self, src: ReplicaId, updates: Sequence[Update]) -> None:
        """Buffer a whole batch frame, then drain once.

        Equivalent to calling :meth:`remote_update` for each member in
        order: the drain applies ready updates to fixpoint and always
        picks the globally earliest-arrived candidate, so deferring it to
        the end of the frame yields the same apply order and final state
        while running the readiness bookkeeping once per frame.  The
        stale/gap pre-checks compare against the frontier as of frame
        arrival (no applies happen mid-frame), which only makes the gap
        check marginally more eager -- never less safe.  Callers must not
        place two copies of one update in the same frame; transport-level
        duplicates arrive as separate frames and are caught by the stale
        check as usual.

        Fast path: when the pending buffer is empty and the policy
        offers a ``merge_run`` kernel that proves the whole frame
        consecutively ready (the overwhelmingly common case on reliable
        channels), the frame is applied with a single folded merge and
        one timestamp materialization -- no enqueue, no candidate
        search, no per-member merge.  Any frame the kernel cannot prove
        (stale, gapped, or blocked members) or declines (no shared wide
        edge index, a counter outside the lane range) takes the generic
        path below, identically in every case.
        """
        arrived = self._clock()
        if (
            updates
            and self._merge_run is not None
            and not self.paused
            and self._timestamps_used is None
            and not self._stabilizing
        ):
            count = len(updates)
            # The generic path's sync pre-checks see member j at gap j
            # from the frame-start frontier, and its pending-cap check
            # fires on the transiently buffered frame; mirror both so
            # the fast path never swallows an escalation the generic
            # path would have raised.
            safe = not self.sync_armed or (
                (self.gap_threshold is None or count <= self.gap_threshold)
                and (
                    self.pending_cap is None
                    or self._pending_total + count < self.pending_cap
                )
            )
            if safe:
                run = self._merge_run(
                    self.timestamp, src, [u.timestamp for u in updates]
                )
                if run is not None and (
                    not self._queues or self._queues_blocked_under(run[0])
                ):
                    total = self._pending_total + count
                    if total > self.metrics.pending_high_water:
                        self.metrics.pending_high_water = total
                    self._apply_run(src, updates, arrived, *run)
                    return
        if self.sync_armed and self._fifo:
            assert self._sender_seq is not None and self._next_seq is not None
            want = self._next_seq(self.timestamp, src)
            for update in updates:
                seq = self._sender_seq(src, update.timestamp)
                if seq is not None and want is not None:
                    if seq < want:
                        self._discard_stale(src, update)
                        continue
                    if (
                        self.gap_threshold is not None
                        and seq - want >= self.gap_threshold
                    ):
                        self._emit(EscalateSync("gap"))
                self._enqueue(src, update, arrived, seq)
                self._dirty.add(src)
        else:
            for update in updates:
                self._enqueue(src, update, arrived)
                self._dirty.add(src)
        if self._pending_total > self.metrics.pending_high_water:
            self.metrics.pending_high_water = self._pending_total
        if (
            self.pending_cap is not None
            and self.sync_armed
            and self._pending_total >= self.pending_cap
        ):
            self.shed_pending()
            self._emit(EscalateSync("overflow"))
            return
        if not self.paused:
            self._drain()

    def tick(self) -> None:
        """Re-run the readiness drain (unless paused)."""
        if not self.paused:
            self._drain()

    def wake_all(self) -> None:
        """Have the next drain re-judge every buffered sender (after a
        timestamp assigned from outside: the arrival path trusts the old
        judgements while nothing is dirty)."""
        self._wake_on_changed(None)

    # ------------------------------------------------------------------
    # Global stabilization (visibility-cut policies, repro.gst)
    # ------------------------------------------------------------------
    def stabilize(self) -> None:
        """One stabilization round: refresh the LST, advance the cut,
        broadcast per-destination stabilize frames to every share-graph
        neighbour.  A no-op for non-stabilizing policies."""
        if not self._stabilizing or self.paused:
            return
        st = self.stabilization
        assert st is not None
        clock = self._own_clock(self.timestamp)
        st.refresh(clock)
        self._advance_cut()
        entries = st.table_entries()
        ts = self.timestamp
        emit = self._emit
        for k in self._stab_neighbors:
            # ``sent`` personalizes the frame: the receiver trusts
            # ``clock`` as a heard bound only once its channel from us
            # has drained up to that count (transports may reorder).
            frame = StabilizeFrame(
                self.replica_id, clock, entries, self._sent_count(ts, k)
            )
            wire = stabilize_frame_wire_bytes(frame) if self.size_wire else 0
            emit(SendStabilize(k, frame, wire))

    def stabilize_frame_for(self, dst: ReplicaId) -> Optional[StabilizeFrame]:
        """Build (without emitting) the personalized stabilize frame for
        ``dst``.

        Transports that already exchange periodic control traffic can
        piggyback stabilization on it instead of scheduling
        :meth:`stabilize` rounds -- the TCP runtime attaches these frames
        to its heartbeats.  Returns ``None`` for non-stabilizing
        policies, paused cores, and non-neighbours.
        """
        if not self._stabilizing or self.paused:
            return None
        if dst not in self._stab_neighbors:
            return None
        st = self.stabilization
        assert st is not None
        clock = self._own_clock(self.timestamp)
        st.refresh(clock)
        self._advance_cut()
        return StabilizeFrame(
            self.replica_id,
            clock,
            st.table_entries(),
            self._sent_count(self.timestamp, dst),
        )

    def receive_stabilize(self, src: ReplicaId, frame: StabilizeFrame) -> None:
        """Fold a neighbour's stabilize frame in and advance the cut."""
        if not self._stabilizing or self.paused:
            return
        st = self.stabilization
        assert st is not None
        st.merge_table(frame.entries)
        # The frame's clock is a safe heard bound only if every update
        # the sender had dispatched to us by frame time has applied --
        # otherwise a reordered in-flight update below that clock could
        # still arrive.
        applied_from_src: Optional[int] = None
        if self._next_seq is not None:
            want = self._next_seq(self.timestamp, src)
            if want is not None:
                applied_from_src = want - 1
        if applied_from_src is not None and applied_from_src >= frame.sent:
            st.note_heard(src, frame.clock)
        # Lamport receive rule (max, no bump): idle replicas' clocks
        # catch up so every LST -- and therefore the cut -- converges.
        before = self.timestamp
        after = self._merge_clock(before, frame.clock)
        if after is not before:
            self.timestamp = after
            self._note_timestamp()
        st.refresh(self._own_clock(self.timestamp))
        self._advance_cut()

    def _advance_cut(self) -> None:
        """Make every unstable entry at or below the cut visible.

        Store values fold in *apply order* (the visible store is the
        applied store restricted to the causally-closed stable prefix);
        history records are emitted in ``(clock, apply order)`` so each
        update's causal dependencies -- which carry strictly smaller
        clocks -- become visible before it within the same cut.
        """
        st = self.stabilization
        assert st is not None
        cut = st.cut()
        if cut <= self.visible_cut:
            return
        self.visible_cut = cut
        if not self._unstable:
            return
        ready = [e for e in self._unstable if e[0] <= cut]
        if not ready:
            return
        self._unstable = [e for e in self._unstable if e[0] > cut]
        store = self.visible_store
        assert store is not None
        for _, _, _, register, value, metadata_only, _ in ready:
            if metadata_only or register not in store:
                continue
            store[register] = value
        now = self._clock()
        metrics = self.metrics
        record = self.record_history
        emit = self._emit
        ready.sort(key=lambda e: (e[0], e[1]))
        for _, _, uid, register, _, _, applied_at in ready:
            metrics.record_visible_lag(now - applied_at)
            if record:
                emit(RecordHistory("visible", uid, register, now))

    @property
    def unstable_count(self) -> int:
        """Applied updates still awaiting the visibility cut."""
        return len(self._unstable)

    def _queues_blocked_under(self, final_ts: Timestamp) -> bool:
        """Prove no buffered update can become ready below ``final_ts``.

        Delegates to the policy's ``blocked_many`` kernel per sender
        queue; a single unprovable sender aborts (the run fast path then
        falls back to the generic drain, which interleaves correctly).
        The pre-state is a drain fixpoint, so every buffered update is
        unready *now*; this extends that to every frontier the run
        passes through.
        """
        blocked = self._blocked_many
        if blocked is None:
            return False
        for sender, queue in self._queues.items():
            if not blocked(
                final_ts,
                sender,
                [entry[0].timestamp for entry in queue.values()],
            ):
                return False
        return True

    def _discard_stale(self, src: ReplicaId, update: Update) -> None:
        self.metrics.stale_discarded += 1
        debt = self._value_debt.get(update.register)
        if debt is not None and debt == update.uid:
            if update.register in self.store and not update.metadata_only:
                self.store[update.register] = update.value
            del self._value_debt[update.register]
        if self.emit_confirm:
            self._emit(ConfirmApplied(src, update))

    def _enqueue(
        self,
        src: ReplicaId,
        update: Update,
        arrived: float,
        seq: Optional[int] = None,
    ) -> None:
        """Buffer one update under its sender-edge sequence ``seq``
        (asked of the policy when not given).  Marking the sender for
        re-examination is the caller's decision."""
        arrival = self._arrival
        self._arrival += 1
        if seq is None and self._fifo:
            assert self._sender_seq is not None
            seq = self._sender_seq(src, update.timestamp)
        queue = self._queues.get(src)
        if queue is None:
            queue = self._queues[src] = {}
            if self._fifo:
                self._seqmaps[src] = {}
        queue[arrival] = (update, arrived, seq)
        self._pending_total += 1
        if self._fifo:
            seqmap = self._seqmaps[src]
            if seqmap is not None:
                if seq is None or seq in seqmap:
                    # Unindexable or duplicate sequence: this sender's
                    # queue degrades to linear scanning.
                    self._seqmaps[src] = None
                else:
                    seqmap[seq] = arrival

    def _wake_after_change(
        self, before: Timestamp, after: Timestamp
    ) -> None:
        """Mark senders whose predicate inputs a timestamp change touched."""
        if after is before or not self._queues:
            return
        self._wake_on_changed(after.diff_keys(before))

    def _wake_on_changed(self, changed: Optional[Container[Edge]]) -> None:
        if not self._queues:
            return
        blocked = self._blocked_on
        if changed is None or (self._blocking_edge is None and changed):
            # Unknown delta (incomparable representations), or a policy
            # that cannot name the counter a blocked update waits on:
            # conservatively recheck every sender.
            self._dirty.update(self._queues)
            blocked.clear()
        elif blocked:
            # ``changed`` may be a lazy view: test only the filed edges.
            for edge in [e for e in blocked if e in changed]:
                self._dirty.update(blocked.pop(edge))

    def _find_candidate(self, sender: ReplicaId) -> Optional[int]:
        """Arrival key of this sender's (unique) ready update, if any.

        Under an exact sender-edge gap check at most one queued update per
        sender can satisfy J -- the one carrying the next sequence number
        -- so a seq-indexed sender resolves in O(1).  Senders that cannot
        be seq-indexed (no hooks, lax predicates, unindexable entries)
        scan their queue in arrival order, which preserves the historical
        semantics for arbitrary predicates.

        Each entry judged on the way (:meth:`_judge`) files the sender
        under the counter its false conjunct reads when it fails: one
        for a seq-indexed sender, one per scanned entry otherwise (an
        earlier entry turning ready must pre-empt a later candidate).
        """
        queue = self._queues.get(sender)
        if not queue:
            return None
        seqmap = self._seqmaps.get(sender) if self._fifo else None
        want: Optional[int] = None
        if seqmap is not None:
            assert self._next_seq is not None
            # None: sender edge untracked locally, scan instead.
            want = self._next_seq(self.timestamp, sender)
        if seqmap is not None and want is not None:
            arrival = seqmap.get(want)
            if arrival is None:
                # Not arrived yet: nothing to file.  Its arrival judges
                # it or marks the sender dirty, and each of the sender's
                # own applies (``_drain``, ``_apply_run``, the arrival
                # path) marks it dirty -- the only thing that moves the
                # counter ``next_seq`` reads while ``J`` gates third
                # parties (a policy whose merges can raise another
                # sender's edge must report an unknown delta).
                return None
            return arrival if self._judge(sender, queue[arrival][0]) else None
        for arrival, entry in queue.items():
            if self._judge(sender, entry[0]):
                return arrival
        return None

    def _judge(self, sender: ReplicaId, update: Update) -> bool:
        """``J`` for one update of ``sender``, counted in
        ``candidate_probes``; a refused update files its sender under the
        counter the first false conjunct reads.  Filings are dropped by
        :meth:`_wake_on_changed` when that counter changes, never here:
        a refusal repeated names the same (unchanged) counter."""
        self.metrics.candidate_probes += 1
        ts = self.timestamp
        if self.policy.ready(ts, sender, update.timestamp):
            return True
        blocking = self._blocking_edge
        if blocking is not None:
            self._blocked_on.setdefault(
                blocking(ts, sender, update.timestamp), set()
            ).add(sender)
        return False

    def _drain(self) -> None:
        """Apply pending updates whose predicate J holds, to fixpoint."""
        queues = self._queues
        candidates = self._candidates
        dirty = self._dirty
        while True:
            if dirty:
                for sender in dirty:
                    arrival = self._find_candidate(sender)
                    if arrival is None:
                        candidates.pop(sender, None)
                    else:
                        candidates[sender] = arrival
                dirty.clear()
            if not candidates:
                return
            # Apply the globally earliest-arrived ready update: identical
            # order to the historical full-rescan implementation.
            best_sender = min(candidates, key=candidates.__getitem__)
            arrival = candidates.pop(best_sender)
            queue = queues[best_sender]
            update, arrived, seq = queue.pop(arrival)
            self._pending_total -= 1
            if not queue:
                del queues[best_sender]
                self._seqmaps.pop(best_sender, None)
            else:
                if seq is not None:
                    seqmap = self._seqmaps.get(best_sender)
                    if seqmap is not None:
                        seqmap.pop(seq, None)
                dirty.add(best_sender)
            self._apply(best_sender, update, arrived)

    def _apply(self, src: ReplicaId, update: Update, arrived: float) -> None:
        register = update.register
        if register in self.store:
            if not update.metadata_only:
                self.store[register] = update.value
                # This write supersedes any outstanding value debt on the
                # register: were the debt paid later (a stale redelivery
                # can arrive after this), it would roll the store back to
                # the older value.
                self._value_debt.pop(register, None)
        elif register not in self.dummy_registers:
            raise ProtocolError(
                f"replica {self.replica_id!r} received update for "
                f"unstored register {register!r}"
            )
        before = self.timestamp
        if self._merge_delta is not None:
            self.timestamp, changed = self._merge_delta(
                before, src, update.timestamp
            )
            if self.timestamp is not before:
                self._wake_on_changed(changed)
        else:
            self.timestamp = self.policy.merge(before, src, update.timestamp)
            self._wake_after_change(before, self.timestamp)
        self._note_timestamp()
        now = self._clock()
        self.metrics.applied_remote += 1
        self.metrics.record_apply_delay(now - arrived)
        if self._stabilizing:
            assert self.stabilization is not None
            clock = self._stab_clock(src, update.timestamp)
            # Per-channel FIFO applies + strictly increasing issuer
            # clocks make the applied clock a safe ``heard`` bound.
            self.stabilization.note_heard(src, clock)
            order = self._unstable_order
            self._unstable_order = order + 1
            self._unstable.append(
                (
                    clock,
                    order,
                    update.uid,
                    register,
                    update.value,
                    update.metadata_only,
                    now,
                )
            )
        if self.record_history:
            self._emit(RecordHistory("apply", update.uid, register, now))
        if self.emit_confirm:
            # Applied state is synchronously durable (write-ahead): tell
            # the reliable transport so it acks the segment.
            self._emit(ConfirmApplied(src, update))
        if self.emit_applied:
            self._emit(Applied(src, update, arrived))

    def _apply_run(
        self,
        src: ReplicaId,
        updates: Sequence[Update],
        arrived: float,
        new_ts: Timestamp,
        changed: Optional[Container[Edge]],
    ) -> None:
        """Apply a consecutively-ready frame under one merged timestamp.

        ``new_ts`` is the policy's fold of the whole frame (see
        ``merge_run``), byte-identical to merging member by member.  The
        caller has proved no buffered update can become ready at any
        frontier the run passes through (empty buffer, or the
        ``blocked_many`` proof), so the generic drain would never have
        interleaved another sender's update.  Waiters of the counters
        the run raised are woken all the same -- the conjunct they were
        filed under may now hold while another still blocks them -- and
        so is ``src`` itself when it has updates buffered past the run
        (its expected sequence number moved, as after any apply); the
        closing drain re-files them.  Store writes, metrics, and
        per-member effects are emitted in exactly the generic order.
        The only observable difference is that an effect handler
        re-entering the core mid-frame reads the post-frame timestamp
        instead of a mid-frame one -- still a valid causal frontier, and
        no in-tree adapter does so.
        """
        self.timestamp = new_ts
        self._wake_on_changed(changed)
        if src in self._queues:
            self._dirty.add(src)
        self._note_timestamp()
        store = self.store
        dummies = self.dummy_registers
        debt = self._value_debt
        metrics = self.metrics
        emit = self._emit
        clock = self._clock
        record = self.record_history
        confirm = self.emit_confirm
        applied = self.emit_applied
        for update in updates:
            register = update.register
            if register in store:
                if not update.metadata_only:
                    store[register] = update.value
                    debt.pop(register, None)
            elif register not in dummies:
                raise ProtocolError(
                    f"replica {self.replica_id!r} received update for "
                    f"unstored register {register!r}"
                )
            now = clock()
            metrics.applied_remote += 1
            metrics.record_apply_delay(now - arrived)
            if record:
                emit(RecordHistory("apply", update.uid, register, now))
            if confirm:
                emit(ConfirmApplied(src, update))
            if applied:
                emit(Applied(src, update, arrived))
        # An effect handler may have re-entered and buffered updates
        # (no in-tree adapter does, but the generic path would drain).
        if self._queues and not self.paused:
            self._drain()

    # ------------------------------------------------------------------
    # Pending buffer views (per-sender queues behind a flat facade)
    # ------------------------------------------------------------------
    @property
    def pending(self) -> List[Tuple[ReplicaId, Update, float]]:
        """Buffered updates as ``(sender, update, arrived)`` in arrival order."""
        merged: List[Tuple[int, ReplicaId, Update, float]] = [
            (arrival, sender, update, arrived)
            for sender, queue in self._queues.items()
            for arrival, (update, arrived, _) in queue.items()
        ]
        merged.sort(key=lambda item: item[0])
        return [
            (sender, update, arrived) for _, sender, update, arrived in merged
        ]

    @pending.setter
    def pending(
        self, entries: Iterable[Tuple[ReplicaId, Update, float]]
    ) -> None:
        self.clear_pending()
        for src, update, arrived in entries:
            self._enqueue(src, update, arrived)
            self._dirty.add(src)

    def clear_pending(self) -> None:
        self._queues.clear()
        self._candidates.clear()
        self._dirty.clear()
        self._blocked_on.clear()
        self._seqmaps.clear()
        self._pending_total = 0

    @property
    def pending_count(self) -> int:
        return self._pending_total

    def queue_stats(self) -> QueueStats:
        """Point-in-time delivery-queue statistics (see :class:`QueueStats`)."""
        filed: Set[ReplicaId] = set()
        for waiters in self._blocked_on.values():
            filed |= waiters
        return QueueStats(
            pending_total=self._pending_total,
            senders=len(self._queues),
            indexed_senders=sum(
                1 for seqmap in self._seqmaps.values() if seqmap is not None
            ),
            dirty=len(self._dirty),
            blocked_senders=len(filed),
        )

    def blocked_on(self) -> Dict[ReplicaId, Tuple[Edge, int, int]]:
        """Why each blocked sender's head-of-line update is still pending:
        ``sender -> (counter, value held, value needed)``.  Asks the
        policy what the blocking-counter index asked when it filed the
        sender (the filed counter has not changed since, so the answer
        is the same), which also covers a sender waiting for a sequence
        number that has not arrived and is filed nowhere.  Needed is
        what the update carries for the counter, or one less when the
        update is beyond the sender's expected sequence number (``J``
        wants its exact predecessor)."""
        ts = self.timestamp
        blocking = self._blocking_edge
        view: Dict[ReplicaId, Tuple[Edge, int, int]] = {}
        if blocking is None:
            return view
        for sender, queue in self._queues.items():
            if sender in self._dirty or sender in self._candidates:
                continue  # not examined since its last wake-up, or ready
            want = (
                self._next_seq(ts, sender)
                if self._next_seq is not None
                else None
            )
            seqmap = self._seqmaps.get(sender)
            arrival = (
                seqmap.get(want) if seqmap and want is not None else None
            )
            if arrival is None:
                arrival = next(iter(queue))
            update, _, seq = queue[arrival]
            edge = blocking(ts, sender, update.timestamp)
            needed = update.timestamp[edge]
            if seq is not None and want is not None and seq != want:
                needed -= 1
            view[sender] = (edge, ts[edge], needed)
        return view

    # ------------------------------------------------------------------
    # Anti-entropy: shedding and snapshot installation (repro.sync)
    # ------------------------------------------------------------------
    def shed_pending(self) -> int:
        """Drop every buffered update and roll its channel state back.

        The shed entries were delivered but never applied, so the
        reliable transport still holds them unacked at their senders;
        the :class:`RollbackChannels` effect tells the adapter to roll
        the volatile channel state back so the retransmissions re-deliver
        them later.  Nothing is lost -- memory is reclaimed now,
        redelivery (or a covering snapshot) restores the data.  Returns
        the number of entries shed.
        """
        shed = self._pending_total
        if shed == 0:
            return 0
        self.metrics.updates_shed += shed
        self.clear_pending()
        self._emit(RollbackChannels(shed))
        return shed

    def install_sync(
        self,
        timestamp: Timestamp,
        values: Dict[RegisterName, Any],
        value_debt: Dict[RegisterName, UpdateId],
    ) -> None:
        """Atomically adopt a causally consistent snapshot.

        Called (through the adapter) by :class:`repro.sync.SyncManager`
        *after* it has recorded the transferred updates in the history
        and settled the channel state (acks for covered segments,
        rollback for the rest).  The pending buffer is shed first --
        every entry is either covered by the snapshot (stale now) or will
        be re-delivered by its sender's retransmission -- then the store
        and timestamp jump to the frontier and normal predicate-J
        delivery resumes from there.
        """
        self.shed_pending()
        for register, value in values.items():
            if register in self.store:
                self.store[register] = value
                # A supplied value settles any older debt on the register
                # (the sync manager only ships values at or above it).
                self._value_debt.pop(register, None)
        self.timestamp = timestamp
        self._note_timestamp()
        self._value_debt.update(value_debt)
        self.metrics.syncs += 1
        if not self.paused:
            self._drain()

    @property
    def value_debt(self) -> Dict[RegisterName, UpdateId]:
        """Registers whose value awaits the debt update's retransmission.

        This is the live ledger, not a copy; the sync layer mutates it
        through the adapter.
        """
        return self._value_debt

    def pay_value_debt(self, register: RegisterName, value: Any) -> None:
        """Settle one value debt out-of-band (anti-entropy fallback).

        Used by :meth:`repro.sync.SyncManager.settle_value_debts` when the
        debt update's retransmission can never arrive (its segment was
        truncated out of the sender's log): the value comes straight from
        a register holder's store instead.
        """
        if register in self._value_debt:
            if register in self.store:
                self.store[register] = value
            del self._value_debt[register]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _note_timestamp(self) -> None:
        if self._timestamps_used is not None:
            self._timestamps_used.add(self.timestamp)

    @property
    def timestamps_used(self) -> FrozenSet[Timestamp]:
        """Distinct timestamp values assigned so far (when tracked)."""
        if self._timestamps_used is None:
            raise ProtocolError("timestamp tracking was not enabled")
        return frozenset(self._timestamps_used)

    def __repr__(self) -> str:
        return (
            f"ProtocolCore({self.replica_id!r}, {len(self.store)} registers, "
            f"{self._pending_total} pending)"
        )
