"""The one adapter skeleton every runtime shares.

:class:`~repro.core.engine.core.ProtocolCore` performs no I/O; a runtime
is whatever turns its effects into I/O and its transport's deliveries
into core calls.  Everything about that translation which does not
depend on the transport lives here, once:

* construction of the core (exposed as ``.core`` in every runtime) with
  its per-effect gating flags derived from what is installed -- a
  history, an ``on_apply`` hook;
* the effect dispatcher: ``Send`` first, then ``RecordHistory`` into an
  attached history (the two effects every write and apply emit), every
  other member of the :data:`~repro.core.engine.effects.Effect` union
  through one class -> handler table, anything else a
  :class:`ProtocolError`;
* the send-side batch window: the accumulator, the one-shot flush
  timer, the ``batch_max`` eager flush, the ``SendStabilize`` bypass;
* the ``RecordHistory`` -> :class:`~repro.core.causality.History`
  fan-out (a runtime that records elsewhere -- the TCP runtime's WAL --
  installs a ``RecordHistory`` handler in the table instead);
* the inbound ``Update`` / ``UpdateBatch`` / ``StabilizeFrame`` demux;
* the read-only views of core state.

A runtime supplies two primitives, :meth:`CoreAdapter._transmit` and
:meth:`CoreAdapter._call_later`, and overrides a handler only where its
transport genuinely differs (the simulator's reliable-transport hooks,
the TCP runtime's WAL-before-wire durability).  Effects are handled
synchronously, in emission order, so adapter-observable traces are the
core's own.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from repro.core.causality import History
from repro.core.engine.batching import BatchAccumulator, UpdateBatch
from repro.core.engine.core import ProtocolCore
from repro.core.engine.effects import (
    Applied,
    ConfirmApplied,
    Effect,
    EscalateSync,
    RecordHistory,
    RollbackChannels,
    Send,
    SendStabilize,
)
from repro.core.engine.metrics import QueueStats, ReplicaMetrics
from repro.core.engine.stabilization import StabilizeFrame
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import Timestamp, TimestampPolicy
from repro.errors import ProtocolError
from repro.types import RegisterName, ReplicaId, Update

__all__ = ["CoreAdapter"]


class CoreAdapter:
    """A :class:`ProtocolCore` wired to one runtime's transport.

    Parameters
    ----------
    replica_id, graph, policy, clock:
        Passed to the core unchanged.
    history:
        Global issue/apply log the ``RecordHistory`` effects fan out to;
        ``None`` switches the effect (and its allocation) off.
    on_apply:
        Post-apply hook ``(adapter, src, update)``; the ``Applied``
        effect is only emitted while one is installed.
    batch_window, batch_max:
        Coalesce ``Send`` effects per destination for ``batch_window``
        of the runtime's time units (0 = off, transmit immediately),
        flushing a destination early at ``batch_max`` buffered updates.
    core_options:
        Remaining :class:`ProtocolCore` keyword arguments.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        graph: ShareGraph,
        policy: TimestampPolicy,
        clock: Callable[[], float],
        history: Optional[History] = None,
        on_apply: Optional[Callable[..., None]] = None,
        batch_window: float = 0.0,
        batch_max: int = 64,
        **core_options: Any,
    ) -> None:
        self.replica_id = replica_id
        self.graph = graph
        self.policy = policy
        self.history = history
        self._on_apply = on_apply
        self._batch_window = batch_window
        self._batcher: Optional[BatchAccumulator] = (
            BatchAccumulator(batch_max) if batch_window > 0 else None
        )
        self._flush_handle: Any = None
        self._handlers: Dict[type, Callable[[Any], None]] = {
            SendStabilize: self._on_send_stabilize,
            ConfirmApplied: self._on_confirm_applied,
            Applied: self._on_applied,
            EscalateSync: self._on_escalate_sync,
            RollbackChannels: self._on_rollback_channels,
        }
        core_options.setdefault("record_history", history is not None)
        self.core = ProtocolCore(
            replica_id,
            graph,
            policy,
            self._on_effect,
            clock=clock,
            emit_applied=on_apply is not None,
            **core_options,
        )

    # ------------------------------------------------------------------
    # The two primitives a runtime supplies
    # ------------------------------------------------------------------
    def _transmit(
        self,
        dst: ReplicaId,
        message: Any,
        metadata_counters: int,
        wire_bytes: int,
    ) -> None:
        """Hand one frame (``Update``, ``UpdateBatch`` or
        ``StabilizeFrame``) to the transport, addressed to ``dst``."""
        raise NotImplementedError

    def _call_later(self, delay: float, fn: Callable[[], None]) -> Any:
        """Run ``fn`` once, ``delay`` runtime time units from now; the
        returned handle has ``cancel()``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Effect dispatch (the core's only window on the outside world)
    # ------------------------------------------------------------------
    def _on_effect(self, eff: Effect) -> None:
        # Every write emits Send and, with a History attached, every
        # write and every apply emits RecordHistory: those two are inline
        # arms.  The rest are rare and go through the handler table.
        if type(eff) is Send:
            if self._batcher is None:
                self._transmit(
                    eff.dst, eff.update, eff.metadata_counters, eff.wire_bytes
                )
            else:
                self._buffer_send(eff)
        elif type(eff) is RecordHistory and self.history is not None:
            history = self.history
            if eff.kind == "apply":
                history.record_apply(self.replica_id, eff.uid, eff.time)
            elif eff.kind == "visible":
                history.record_visible(self.replica_id, eff.uid, eff.time)
            else:
                history.record_issue(
                    self.replica_id,
                    eff.uid,
                    eff.register,
                    eff.time,
                    client=eff.client,
                )
        else:
            handler = self._handlers.get(type(eff))
            if handler is None:
                raise ProtocolError(f"unexpected effect {eff!r}")
            handler(eff)

    def _on_send_stabilize(self, eff: SendStabilize) -> None:
        # Stabilize frames ride the same transport as updates but never
        # batch: the cut should advance promptly, and frames are tiny.
        self._transmit(
            eff.dst, eff.frame, len(eff.frame.entries) + 2, eff.wire_bytes
        )

    def _on_applied(self, eff: Applied) -> None:
        # Only emitted while an on_apply hook is installed.
        if self._on_apply is not None:
            self._on_apply(self, eff.src, eff.update)

    # The three transport-hook effects: a runtime whose transport has no
    # durable-apply confirmation, no volatile channel state and no
    # anti-entropy layer has nothing to do for them.
    def _on_confirm_applied(self, eff: ConfirmApplied) -> None:
        pass

    def _on_escalate_sync(self, eff: EscalateSync) -> None:
        pass

    def _on_rollback_channels(self, eff: RollbackChannels) -> None:
        pass

    # ------------------------------------------------------------------
    # Send-side batch window (one frame, many updates)
    # ------------------------------------------------------------------
    def _buffer_send(self, eff: Send) -> None:
        batcher = self._batcher
        assert batcher is not None
        frame = batcher.add(
            eff.dst, eff.update, eff.metadata_counters, eff.wire_bytes
        )
        if frame is not None:
            # Destination hit batch_max: ship the full frame now.
            self._transmit_frame(frame)
        if batcher.pending and self._flush_handle is None:
            self._flush_handle = self._call_later(
                self._batch_window, self._flush_batches
            )

    def _flush_batches(self) -> None:
        """Close the flush window: ship one frame per buffered destination."""
        self._flush_handle = None
        if self._batcher is not None:
            for frame in self._batcher.flush():
                self._transmit_frame(frame)

    def _transmit_frame(self, frame: UpdateBatch) -> None:
        self._transmit(
            frame.dst, frame, frame.metadata_counters, frame.wire_bytes
        )

    @property
    def outbox_pending(self) -> int:
        """Updates buffered in the send-side batcher (0 when batching is off)."""
        return 0 if self._batcher is None else self._batcher.pending

    # ------------------------------------------------------------------
    # Inbound demux (prototype steps 3-4)
    # ------------------------------------------------------------------
    def _deliver(self, src: ReplicaId, message: Any) -> None:
        """Feed one transport delivery from ``src`` to the core."""
        if isinstance(message, Update):
            self.core.remote_update(src, message)
        elif isinstance(message, UpdateBatch):
            self.core.remote_batch(src, message.updates)
        elif isinstance(message, StabilizeFrame):
            self.core.receive_stabilize(src, message)
        else:
            raise ProtocolError(f"unexpected message {message!r}")

    # ------------------------------------------------------------------
    # Core state views
    # ------------------------------------------------------------------
    def read(self, register: RegisterName) -> Any:
        """Step 1: return the local (visible) copy of ``register``."""
        return self.core.read(register)

    @property
    def store(self) -> Dict[RegisterName, Any]:
        return self.core.store

    @property
    def timestamp(self) -> Timestamp:
        return self.core.timestamp

    @property
    def metrics(self) -> ReplicaMetrics:
        return self.core.metrics

    def queue_stats(self) -> QueueStats:
        """Delivery-engine queue statistics (see :class:`QueueStats`)."""
        return self.core.queue_stats()

    @property
    def on_apply(self) -> Optional[Callable[..., None]]:
        """Post-apply hook ``(adapter, src, update)``."""
        return self._on_apply

    @on_apply.setter
    def on_apply(self, hook: Optional[Callable[..., None]]) -> None:
        self._on_apply = hook
        self.core.emit_applied = hook is not None

    # ------------------------------------------------------------------
    # Global stabilization (visibility-cut policies, repro.gst)
    # ------------------------------------------------------------------
    def stabilize(self) -> None:
        """One stabilization round: gossip LSTs, advance the visibility
        cut.  A no-op under non-stabilizing policies."""
        self.core.stabilize()

    @property
    def stabilizing(self) -> bool:
        """Whether this replica runs a visibility-cut (GST) policy."""
        return self.core.visible_store is not None

    @property
    def unstable_count(self) -> int:
        """Applied updates still awaiting the visibility cut."""
        return self.core.unstable_count


class _AdapterSet:
    """What every system class does with its adapters, written once.

    The host class supplies ``graph`` and ``replicas``; :meth:`check`
    additionally needs the shared ``history`` the adapters record into
    (``TcpCluster`` has none: its history is the replicas' WALs, merged
    and audited by :mod:`repro.harness.process_chaos`).
    """

    graph: ShareGraph
    replicas: Mapping[ReplicaId, CoreAdapter]
    history: History

    def _adapters(self) -> Iterable[CoreAdapter]:
        """The adapters taking part in a stabilization round."""
        return self.replicas.values()

    @property
    def stabilizing(self) -> bool:
        """True when any replica runs a visibility-cut (GST) policy."""
        return any(a.stabilizing for a in self._adapters())

    def stabilize_all(self) -> None:
        """Run one stabilization round on every replica; the frames are
        delivered by the runtime's next run/settle."""
        for adapter in self._adapters():
            adapter.stabilize()

    def stable(self) -> bool:
        """True when no replica holds applied-but-invisible updates
        (trivially true for non-stabilizing policies)."""
        return all(a.unstable_count == 0 for a in self._adapters())

    def check(
        self,
        require_liveness: bool = True,
        visibility: Optional[bool] = None,
    ) -> Any:
        """Verify replica-centric causal consistency (Definition 2).

        Returns a :class:`repro.checker.CheckResult`.  Liveness is only
        meaningful once the run has quiesced; pass
        ``require_liveness=False`` mid-run.  ``visibility`` defaults to
        whether the system runs a stabilizing (GST) policy: such runs
        are judged at visibility events (where their causal guarantee
        lives), others at applies.  For stabilizing runs liveness
        additionally needs the visibility cut settled first.
        """
        from repro.checker import check_history

        if visibility is None:
            visibility = self.stabilizing
        return check_history(
            self.history,
            self.graph,
            require_liveness=require_liveness,
            visibility=visibility,
        )
