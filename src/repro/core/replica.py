"""The replica prototype of Section 2.1 -- the simulator runtime adapter.

A :class:`Replica` implements the four steps of the prototype literally:

1. ``read(x)`` returns the local copy of ``x``.
2. ``write(x, v)`` atomically writes locally, advances the timestamp via
   the policy, multicasts ``update(i, tau_i, x, v)`` to every replica
   storing ``x``, and acks the client.
3. A received update is buffered in ``pending``.
4. Whenever the policy's predicate ``J`` fires for a pending update, the
   update is applied, the timestamp merged, and the entry removed -- in a
   loop, since one application may unblock others.

All four steps -- and everything algorithm-specific around them (the
timestamp engine, the per-sender delivery queues with readiness wake
sets, value debts, pending-cap/gap backpressure) -- live in the shared
sans-I/O :class:`~repro.core.engine.ProtocolCore` (``replica.core``), and
everything transport-independent about adapting it -- effect dispatch,
the batch window, history recording, the inbound demux, the core views
-- in the shared :class:`~repro.core.engine.CoreAdapter` skeleton.  This
class is the *simulator adapter*: it supplies the simulated
:class:`~repro.network.transport.Network` as the transport and the
simulator as the timer, wires the reliable transport's
confirmation/rollback hooks, and owns what is genuinely operational --
crash/recovery, pause/resume, snapshots, the sync-layer contract.

Dummy registers (Appendix D) are supported natively: a register in
``dummy_registers`` is tracked in the timestamp but has no stored copy; its
updates arrive as metadata-only messages and never touch the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.core.causality import History
from repro.core.engine import (
    ConfirmApplied,
    CoreAdapter,
    EscalateSync,
    ReplicaMetrics,
    RollbackChannels,
)
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import Timestamp, TimestampPolicy
from repro.errors import ProtocolError
from repro.network.transport import Network
from repro.types import RegisterName, ReplicaId, Update, UpdateId

__all__ = [
    "ApplyHook",
    "Replica",
    "ReplicaMetrics",
    "ReplicaSnapshot",
]


@dataclass(frozen=True)
class ReplicaSnapshot:
    """Persistent state of a replica: everything needed to resume.

    The prototype's only "memory" is the timestamp (Section 2.1), plus
    the register copies, the write sequence counter, and any buffered
    updates that had not yet passed predicate J.
    """

    replica_id: ReplicaId
    store: Tuple[Tuple[RegisterName, Any], ...]
    timestamp: Timestamp
    seq: int
    pending: Tuple[Tuple[ReplicaId, Update, float], ...]


ApplyHook = Callable[["Replica", ReplicaId, Update], None]


class Replica(CoreAdapter):
    """One peer's replica: the shared protocol core behind the simulator.

    Parameters
    ----------
    replica_id, graph:
        Identity and the share graph (used for multicast recipients).
    policy:
        The timestamp policy (structure + advance/merge/J).
    network:
        Transport used for ``update`` messages.
    history:
        Global issue/apply log for the checker; may be ``None`` to run
        without verification overhead.
    dummy_registers:
        Registers replica stores only as metadata (Appendix D).  They are
        part of ``X_i`` in the (augmented) share graph but reads/writes on
        them are rejected and their values are never stored.
    on_apply:
        Optional hook invoked after an update is applied; the virtual
        register forwarding of Appendix D is built on it.
    track_timestamps:
        When true, every distinct timestamp value the replica assigns is
        collected (Definition 12 experiments).
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        graph: ShareGraph,
        policy: TimestampPolicy,
        network: Network,
        history: Optional[History] = None,
        dummy_registers: AbstractSet[RegisterName] = frozenset(),
        on_apply: Optional[ApplyHook] = None,
        track_timestamps: bool = False,
        batch_window: float = 0.0,
        batch_max: int = 64,
    ) -> None:
        self.network = network
        self._on_sync_needed: Optional[Callable[[ReplicaId, str], None]] = None
        self._crashed = False
        # Reliable transports expose crash/recovery, durable-apply
        # confirmation, and volatile-state rollback; on the plain (always
        # reliable) Network these hooks simply do not exist.
        self._confirm_applied = getattr(network, "confirm_applied", None)
        self._rollback_volatile = getattr(network, "rollback_volatile", None)
        simulator = network.simulator
        super().__init__(
            replica_id,
            graph,
            policy,
            lambda: simulator.now,
            history=history,
            on_apply=on_apply,
            # Flush window in virtual seconds (0 = off, ship immediately).
            batch_window=batch_window,
            batch_max=batch_max,
            dummy_registers=dummy_registers,
            track_timestamps=track_timestamps,
            emit_confirm=self._confirm_applied is not None,
            size_wire=True,
        )
        network.register(replica_id, self.on_message)

    # ------------------------------------------------------------------
    # The skeleton's two primitives, and the reliable-transport hooks
    # ------------------------------------------------------------------
    def _transmit(
        self,
        dst: ReplicaId,
        message: Any,
        metadata_counters: int,
        wire_bytes: int,
    ) -> None:
        self.network.send(
            self.replica_id, dst, message, metadata_counters, wire_bytes
        )

    def _call_later(self, delay: float, fn: Callable[[], None]) -> Any:
        return self.network.simulator.schedule(delay, fn)

    def _on_confirm_applied(self, eff: ConfirmApplied) -> None:
        # Only emitted when the transport has the hook (emit_confirm).
        self._confirm_applied(self.replica_id, eff.src, eff.update)

    def _on_escalate_sync(self, eff: EscalateSync) -> None:
        if self._on_sync_needed is not None:
            self._on_sync_needed(self.replica_id, eff.reason)

    def _on_rollback_channels(self, eff: RollbackChannels) -> None:
        if self._rollback_volatile is not None:
            self._rollback_volatile(self.replica_id)

    # ------------------------------------------------------------------
    # Client operations (prototype steps 1-2)
    # ------------------------------------------------------------------
    def read(self, register: RegisterName) -> Any:
        """Step 1: return the local copy of ``register``."""
        self._require_up()
        return self.core.read(register)

    def write(
        self, register: RegisterName, value: Any, payload: Any = None
    ) -> UpdateId:
        """Step 2: local write + advance + multicast; returns the update id.

        ``payload`` piggybacks opaque data on the update message (the
        virtual-register mechanism of Appendix D); it is delivered to the
        ``on_apply`` hook at each receiver.
        """
        self._require_up()
        return self.core.local_write(register, value, payload=payload)

    def set_dummy_map(
        self, mapping: Dict[ReplicaId, FrozenSet[RegisterName]]
    ) -> None:
        """Install the cluster-wide dummy-register map (system wiring)."""
        self.core.set_dummy_map(mapping)

    # ------------------------------------------------------------------
    # Global stabilization (visibility-cut policies, repro.gst)
    # ------------------------------------------------------------------
    def stabilize(self) -> None:
        """One stabilization round: gossip LSTs, advance the visibility cut.

        A no-op under non-stabilizing policies and while crashed (a down
        node gossips nothing).
        """
        if not self._crashed:
            super().stabilize()

    @property
    def visible_cut(self) -> int:
        """The stabilization cut this replica's reads are served at."""
        return self.core.visible_cut

    # ------------------------------------------------------------------
    # Update reception (prototype steps 3-4)
    # ------------------------------------------------------------------
    def on_message(self, src: ReplicaId, update: Update) -> None:
        """Step 3: buffer the update, then step 4: drain what's ready."""
        if self._crashed:
            # A crashed node receives nothing; a reliable transport never
            # delivers here (it drops at the physical layer), this guards
            # the plain-Network case.
            return
        self._deliver(src, update)

    # ------------------------------------------------------------------
    # Core state views beyond the skeleton's read-only ones
    # ------------------------------------------------------------------
    @CoreAdapter.store.setter
    def store(self, value: Dict[RegisterName, Any]) -> None:
        self.core.store = value

    @CoreAdapter.timestamp.setter
    def timestamp(self, value: Timestamp) -> None:
        self.core.timestamp = value
        self.core.wake_all()

    @property
    def pending(self) -> List[Tuple[ReplicaId, Update, float]]:
        """Buffered updates as ``(sender, update, arrived)`` in arrival order."""
        return self.core.pending

    @pending.setter
    def pending(
        self, entries: Iterable[Tuple[ReplicaId, Update, float]]
    ) -> None:
        self.core.pending = entries

    @property
    def pending_count(self) -> int:
        return self.core.pending_count

    # ------------------------------------------------------------------
    # Anti-entropy: knobs and state transfer (repro.sync)
    # ------------------------------------------------------------------
    @property
    def pending_cap(self) -> Optional[int]:
        """Pending-buffer bound: reaching it sheds and escalates."""
        return self.core.pending_cap

    @pending_cap.setter
    def pending_cap(self, value: Optional[int]) -> None:
        self.core.pending_cap = value

    @property
    def gap_threshold(self) -> Optional[int]:
        """Escalate when a sender runs this far ahead of the frontier."""
        return self.core.gap_threshold

    @gap_threshold.setter
    def gap_threshold(self, value: Optional[int]) -> None:
        self.core.gap_threshold = value

    @property
    def on_sync_needed(self) -> Optional[Callable[[ReplicaId, str], None]]:
        """State-transfer escalation handler (installed by the sync layer).

        Installing *any* handler -- even a no-op, as the chaos ablation
        does -- arms the core's backpressure paths (stale discard, gap
        escalation, pending-cap shedding).
        """
        return self._on_sync_needed

    @on_sync_needed.setter
    def on_sync_needed(
        self, handler: Optional[Callable[[ReplicaId, str], None]]
    ) -> None:
        self._on_sync_needed = handler
        self.core.sync_armed = handler is not None

    def shed_pending(self) -> int:
        """Drop every buffered update and roll its channel state back.

        See :meth:`repro.core.engine.ProtocolCore.shed_pending`; the
        channel rollback happens through the ``RollbackChannels`` effect
        when the transport supports it.  Returns the entries shed.
        """
        return self.core.shed_pending()

    def install_sync_state(
        self,
        timestamp: Timestamp,
        values: Dict[RegisterName, Any],
        value_debt: Dict[RegisterName, UpdateId],
    ) -> None:
        """Atomically adopt a causally consistent snapshot.

        Called by :class:`repro.sync.SyncManager` *after* it has recorded
        the transferred updates in the history and settled the channel
        state (acks for covered segments, rollback for the rest).
        """
        self._require_up()
        self.core.install_sync(timestamp, values, value_debt)

    @property
    def value_debt(self) -> Dict[RegisterName, UpdateId]:
        """Registers whose value awaits the debt update's retransmission."""
        return dict(self.core.value_debt)

    def pay_value_debt(self, register: RegisterName, value: Any) -> None:
        """Settle one value debt out-of-band (anti-entropy fallback)."""
        self.core.pay_value_debt(register, value)

    # ------------------------------------------------------------------
    # Pause / resume and snapshots (crash-recovery support)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Stop applying updates; arriving messages buffer in ``pending``.

        Models a slow or recovering replica.  Channels stay reliable (the
        paper's model has no message loss), so nothing is dropped.
        """
        self.core.paused = True

    def resume(self) -> None:
        """Resume applying; drains everything that became ready."""
        self.core.paused = False
        self.core.tick()

    @property
    def paused(self) -> bool:
        return self.core.paused

    # ------------------------------------------------------------------
    # Crash / recovery (fault model)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash: discard volatile state and stop participating.

        Applied state (store, timestamp, write sequence) is synchronously
        durable -- every local write and applied update is persisted
        before it is acknowledged -- so the *volatile* state a crash
        destroys is the ``pending`` buffer plus whatever was in flight to
        this node.  The reliable transport rolls the corresponding channel
        state back, so senders retransmit the lost deliveries after
        recovery; see :mod:`repro.network.faults`.

        Requires a transport with crash support (a
        :class:`~repro.network.faults.ReliableNetwork`); on the plain
        reliable Network a crash would silently lose messages, which the
        paper's model forbids.
        """
        crash_hook = getattr(self.network, "crash", None)
        if crash_hook is None:
            raise ProtocolError(
                f"replica {self.replica_id!r} cannot crash: the transport "
                "has no crash support (use a ReliableNetwork)"
            )
        if self._crashed:
            raise ProtocolError(f"replica {self.replica_id!r} is already down")
        self._crashed = True
        self.core.clear_pending()
        if self._batcher is not None:
            # Unflushed outgoing frames are volatile state too.
            self._batcher.flush()
        crash_hook(self.replica_id)

    def recover(self) -> None:
        """Recover: resume from the last durable snapshot.

        Because applied state is persisted write-ahead, the last durable
        snapshot *is* the current store/timestamp/sequence -- recovery
        only has to re-enable the node and let the reliable transport
        re-sync the discarded ``pending`` entries via retransmission.
        """
        if not self._crashed:
            raise ProtocolError(f"replica {self.replica_id!r} is not down")
        self._crashed = False
        self.network.recover(self.replica_id)

    @property
    def crashed(self) -> bool:
        return self._crashed

    def _require_up(self) -> None:
        if self._crashed:
            raise ProtocolError(
                f"replica {self.replica_id!r} is down (crashed)"
            )

    def snapshot(self) -> ReplicaSnapshot:
        """Capture all persistent state (for crash-recovery tests/tools)."""
        return ReplicaSnapshot(
            replica_id=self.replica_id,
            store=tuple(sorted(self.store.items(), key=lambda kv: str(kv[0]))),
            timestamp=self.timestamp,
            seq=self.core.seq,
            pending=tuple(self.pending),
        )

    def restore(self, snapshot: ReplicaSnapshot) -> None:
        """Reset to a snapshot taken from this replica, then drain.

        Updates delivered after the snapshot are *not* replayed by this
        call -- in the paper's model channels are reliable, so a real
        recovery pairs this with the transport re-delivering what was in
        flight.  The tests exercise the supported pattern: pause, snapshot,
        keep receiving (buffered), restore + resume.
        """
        if snapshot.replica_id != self.replica_id:
            raise ProtocolError(
                f"snapshot of {snapshot.replica_id!r} cannot restore "
                f"replica {self.replica_id!r}"
            )
        self.core.store = dict(snapshot.store)
        self.core.timestamp = snapshot.timestamp
        self.core.seq = snapshot.seq
        self.core.pending = list(snapshot.pending)
        self.core.tick()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def timestamps_used(self) -> FrozenSet[Timestamp]:
        """Distinct timestamp values assigned so far (when tracked)."""
        return self.core.timestamps_used

    def __repr__(self) -> str:
        return (
            f"Replica({self.replica_id!r}, {len(self.store)} registers, "
            f"{self.core.pending_count} pending)"
        )
