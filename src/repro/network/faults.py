"""Unreliable channels and the reliable-delivery layer that tames them.

The paper's system model (Section 2.1) assumes reliable, exactly-once
channels.  This module *discharges* that assumption instead of hard-coding
it: :class:`FaultyNetwork` is a transport whose physical layer
probabilistically drops and duplicates messages under a seeded, replayable
:class:`FaultPlan`, and :class:`ReliableNetwork` recovers the reliable
abstraction on top of it with per-channel sequence numbers (duplicate
suppression), positive acks, and retransmission with exponential backoff
plus jitter driven by the simulation kernel's timer API.

Crash/recovery model
--------------------
A node's *applied* state (store, timestamp, write sequence) is treated as
synchronously durable -- every local write and every applied update is
persisted before it is acknowledged, write-ahead-log style.  The volatile
state a crash destroys is therefore exactly:

* the receiver-side ``pending`` buffer (updates delivered but not yet
  applied -- their channel state is rolled back so senders retransmit
  them after recovery), and
* physical copies in flight to the crashed node (dropped on arrival).

Consequently an ack is only sent once a segment's payload has been
*confirmed durable* by the application (``ack_policy="on_apply"``, used by
:class:`~repro.core.replica.Replica` via :meth:`confirm_applied`), or
immediately on receipt for applications whose delivery is durable
(``ack_policy="on_receipt"``).  Unacked segments are retransmitted until
acknowledged, so after the last fault (drop horizon passed, crashed nodes
recovered) every logical send is delivered exactly once: safety holds
throughout, liveness from the fault horizon on.

With a trivial (fault-free) plan the layer is bypassed entirely: no
envelopes, no acks, no timers -- zero overhead on message count, identical
accounting to the plain :class:`~repro.network.transport.Network`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import (
    ConfigurationError,
    RetryExhaustedError,
    UnknownDestinationError,
)
from repro.network.delays import DelayModel
from repro.network.partitions import Partition
from repro.network.transport import Network
from repro.sim.kernel import EventHandle, Simulator
from repro.types import Edge, ReplicaId


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChannelFaults:
    """Per-channel fault rates.

    ``loss`` is the probability a physical copy is dropped; ``duplication``
    the probability one extra copy is injected (each extra copy samples an
    independent delay, so duplicates also reorder).
    """

    loss: float = 0.0
    duplication: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ConfigurationError("need 0 <= loss < 1")
        if not 0.0 <= self.duplication <= 1.0:
            raise ConfigurationError("need 0 <= duplication <= 1")

    @property
    def trivial(self) -> bool:
        return self.loss == 0.0 and self.duplication == 0.0


class FaultPlan:
    """A seeded, replayable schedule of channel faults.

    The plan owns its own RNG (independent of the simulator's, so enabling
    faults never perturbs delay sampling): constructing two plans with the
    same arguments and driving the same deterministic simulation yields
    bit-identical fault decisions.  ``horizon`` is the *fault horizon*:
    from that virtual time on, no message is dropped or duplicated -- the
    standard fairness assumption that makes liveness provable.

    Parameters
    ----------
    seed:
        Seed for the plan's private RNG.
    default:
        Fault rates for channels without a per-channel override.
    per_channel:
        ``{(src, dst): ChannelFaults}`` overrides, e.g. to make one
        direction lossy and the rest clean.
    horizon:
        Virtual time after which the plan injects no faults
        (default: never stops).
    blackouts:
        :class:`~repro.network.partitions.Partition` episodes during which
        every physical copy crossing a cut channel is *dropped* (data,
        duplicates, and acks alike).  A blackout models a real outage:
        nothing survives the window, and recovering what was lost is the
        reliability/anti-entropy layers' job.  Blackout decisions
        themselves are deterministic (they consume no randomness), but
        messages inside the window skip the loss/duplication draws
        entirely -- so adding a blackout shifts which RNG samples later
        messages see, and a plan is only replayable against the same
        blackout schedule.
    """

    def __init__(
        self,
        seed: int = 0,
        default: ChannelFaults = ChannelFaults(),
        per_channel: Optional[Mapping[Edge, ChannelFaults]] = None,
        horizon: float = math.inf,
        blackouts: Sequence[Partition] = (),
    ) -> None:
        self.seed = seed
        self.default = default
        self.per_channel: Dict[Edge, ChannelFaults] = dict(per_channel or {})
        self.horizon = horizon
        self.blackouts: Tuple[Partition, ...] = tuple(
            sorted(blackouts, key=lambda b: (b.start, b.end))
        )
        self._rng = random.Random(seed)

    def faults_for(self, src: ReplicaId, dst: ReplicaId) -> ChannelFaults:
        return self.per_channel.get((src, dst), self.default)

    @property
    def trivial(self) -> bool:
        """True when the plan can never inject a fault."""
        return (
            not self.blackouts
            and self.default.trivial
            and all(f.trivial for f in self.per_channel.values())
        )

    def blacked_out(self, src: ReplicaId, dst: ReplicaId, now: float) -> bool:
        """True when a blackout episode currently cuts ``src -> dst``."""
        return any(b.cuts(src, dst, now) for b in self.blackouts)

    def drops(self, src: ReplicaId, dst: ReplicaId, now: float) -> bool:
        if self.blackouts and self.blacked_out(src, dst, now):
            return True
        faults = self.faults_for(src, dst)
        if faults.loss == 0.0 or now >= self.horizon:
            return False
        return self._rng.random() < faults.loss

    def duplicates(self, src: ReplicaId, dst: ReplicaId, now: float) -> bool:
        # No duplicates inside a blackout: injected copies bypass the
        # later drop check, so one would leak through the outage.
        if self.blackouts and self.blacked_out(src, dst, now):
            return False
        faults = self.faults_for(src, dst)
        if faults.duplication == 0.0 or now >= self.horizon:
            return False
        return self._rng.random() < faults.duplication

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, loss={self.default.loss}, "
            f"dup={self.default.duplication}, "
            f"{len(self.per_channel)} overrides, horizon={self.horizon}, "
            f"{len(self.blackouts)} blackouts)"
        )


# ----------------------------------------------------------------------
# Wire segments (reliable layer)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DataSegment:
    """A sequenced envelope around one logical message."""

    seq: int
    payload: Any


@dataclass(frozen=True)
class AckSegment:
    """Positive acknowledgement of ``seq`` on the reverse channel."""

    seq: int


# ----------------------------------------------------------------------
# Faulty physical layer
# ----------------------------------------------------------------------
class FaultyNetwork(Network):
    """A transport whose physical layer loses and duplicates messages.

    Exactly the :class:`Network` interface; every physical transmission
    (including retransmits and acks of subclasses) consults the
    :class:`FaultPlan`.  Without a reliability layer on top, dropped
    messages are gone -- the causal-consistency checker will report the
    resulting liveness violations, which is precisely what the chaos
    experiments assert the reliable layer prevents.
    """

    def __init__(
        self,
        simulator: Simulator,
        delay_model: Optional[DelayModel] = None,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(simulator, delay_model=delay_model)
        self.plan = plan if plan is not None else FaultPlan()

    def _transmit(self, src: ReplicaId, dst: ReplicaId, message: Any) -> float:
        now = self.simulator.now
        is_ack = isinstance(message, AckSegment)
        if not is_ack and self.plan.duplicates(src, dst, now):
            self.stats.record_duplicate(src, dst)
            self._dispatch(src, dst, message)
        if self.plan.drops(src, dst, now):
            if is_ack:
                # Ack loss is harmless control-plane loss: the data sender
                # retransmits, the receiver re-acks.  Accounted separately
                # so the data-plane conservation invariant stays exact.
                self.stats.record_ack_drop()
            else:
                self.stats.record_drop(src, dst)
            return 0.0
        return self._dispatch(src, dst, message)

    def _dispatch(self, src: ReplicaId, dst: ReplicaId, message: Any) -> float:
        """Schedule one surviving physical copy (no further fault checks)."""
        delay = self.delay_model.sample(src, dst, self.simulator.rng)
        self.simulator.schedule(delay, self._deliver, src, dst, message)
        return delay


# ----------------------------------------------------------------------
# Reliable-delivery layer
# ----------------------------------------------------------------------
@dataclass
class _PendingSegment:
    """Sender-side retransmission state for one unacked segment."""

    segment: DataSegment
    attempts: int = 1  # physical transmissions so far
    timer: Optional[EventHandle] = None


@dataclass
class _OutChannel:
    """Sender state for one directed channel."""

    next_seq: int = 1
    unacked: Dict[int, _PendingSegment] = field(default_factory=dict)


@dataclass
class _InChannel:
    """Receiver state for one directed channel.

    ``durable`` seqs have been confirmed applied (persisted) by the
    application; ``volatile`` maps seqs delivered upward but not yet
    confirmed -- they are the channel-level image of the replica's
    ``pending`` buffer, and are rolled back on crash.
    """

    durable: Set[int] = field(default_factory=set)
    volatile: Dict[int, Any] = field(default_factory=dict)


class ReliableNetwork(FaultyNetwork):
    """Exactly-once delivery over a faulty physical layer.

    Parameters
    ----------
    simulator, delay_model, plan:
        As for :class:`FaultyNetwork`.  When ``plan`` is trivial (or
        ``None``) and ``always_on`` is false, the layer is bypassed: sends
        behave exactly like the plain :class:`Network` (zero overhead).
    ack_policy:
        ``"on_apply"`` (default): a segment is acked only after the
        application confirms it durable via :meth:`confirm_applied` --
        required for the crash model, where unapplied deliveries are
        volatile.  ``"on_receipt"``: ack immediately on first receipt, for
        applications whose delivery is itself durable.
    rto, backoff, max_rto:
        Initial retransmission timeout, exponential backoff factor, and
        the backoff cap.  A jitter of up to 10% of the timeout (drawn from
        the simulator RNG, hence deterministic per seed) desynchronises
        retransmission storms.
    max_attempts:
        ``None`` (default) retries until acked; a bound makes the sender
        raise :class:`~repro.errors.RetryExhaustedError` instead.
    unacked_cap:
        Hard bound on each directed channel's retransmit log.  When a send
        would exceed it, the *oldest* unacked entries are dropped (their
        timers cancelled) down to the cap -- the newest entries keep
        retransmitting, so after an outage heals the receiver observes the
        sequence gap and can escalate to state transfer
        (:mod:`repro.sync`).  Without an anti-entropy layer a truncated
        channel has lost data for good: the chaos harness demonstrates the
        resulting liveness failure.  ``None`` (default) keeps the log
        unbounded, the PR-1 behaviour.
    always_on:
        Run the full ARQ machinery even under a trivial plan (needed when
        only crash faults are injected).
    raw_nodes:
        Endpoints whose traffic bypasses the ARQ layer entirely (no
        sequencing, no acks, no retransmission) while remaining subject
        to the fault plan.  Used for nodes with their own end-to-end
        recovery, e.g. client sessions that retry on timeout.
    """

    ACK_POLICIES = ("on_apply", "on_receipt")

    def __init__(
        self,
        simulator: Simulator,
        delay_model: Optional[DelayModel] = None,
        plan: Optional[FaultPlan] = None,
        ack_policy: str = "on_apply",
        rto: float = 8.0,
        backoff: float = 2.0,
        max_rto: float = 64.0,
        max_attempts: Optional[int] = None,
        unacked_cap: Optional[int] = None,
        always_on: bool = False,
        raw_nodes: Iterable[ReplicaId] = (),
    ) -> None:
        super().__init__(simulator, delay_model=delay_model, plan=plan)
        if ack_policy not in self.ACK_POLICIES:
            raise ConfigurationError(
                f"unknown ack_policy {ack_policy!r}; choose from "
                f"{self.ACK_POLICIES}"
            )
        if rto <= 0 or backoff < 1.0 or max_rto < rto:
            raise ConfigurationError("need rto > 0, backoff >= 1, max_rto >= rto")
        if unacked_cap is not None and unacked_cap < 1:
            raise ConfigurationError("need unacked_cap >= 1")
        self.ack_policy = ack_policy
        self.rto = rto
        self.backoff = backoff
        self.max_rto = max_rto
        self.max_attempts = max_attempts
        self.unacked_cap = unacked_cap
        self.raw_nodes = frozenset(raw_nodes)
        self._armed = always_on or not self.plan.trivial
        self._out: Dict[Edge, _OutChannel] = {}
        self._in: Dict[Edge, _InChannel] = {}
        self._down: Set[ReplicaId] = set()

    # -- introspection ---------------------------------------------------
    @property
    def armed(self) -> bool:
        """True when the ARQ machinery is active (non-trivial plan)."""
        return self._armed

    @property
    def idle(self) -> bool:
        """True when no segment awaits acknowledgement."""
        return all(not ch.unacked for ch in self._out.values())

    @property
    def unacked_segments(self) -> int:
        return sum(len(ch.unacked) for ch in self._out.values())

    def _out_channel(self, src: ReplicaId, dst: ReplicaId) -> _OutChannel:
        key = (src, dst)
        ch = self._out.get(key)
        if ch is None:
            ch = self._out[key] = _OutChannel()
        return ch

    def _in_channel(self, src: ReplicaId, dst: ReplicaId) -> _InChannel:
        key = (src, dst)
        ch = self._in.get(key)
        if ch is None:
            ch = self._in[key] = _InChannel()
        return ch

    # -- sending ---------------------------------------------------------
    def send(
        self,
        src: ReplicaId,
        dst: ReplicaId,
        message: Any,
        metadata_counters: int = 0,
        wire_bytes: int = 0,
    ) -> float:
        if (
            not self._armed
            or src in self.raw_nodes
            or dst in self.raw_nodes
        ):
            # Bypassed (trivial plan) or raw endpoint: plain faulty send,
            # no envelope.  Raw traffic still traverses ``_transmit`` and
            # so remains subject to the fault plan.
            return super().send(
                src, dst, message,
                metadata_counters=metadata_counters, wire_bytes=wire_bytes,
            )
        if dst not in self._handlers:
            raise UnknownDestinationError(dst)
        self.stats.record_send(src, dst, metadata_counters, wire_bytes)
        channel = self._out_channel(src, dst)
        seq = channel.next_seq
        channel.next_seq += 1
        segment = DataSegment(seq, message)
        pending = _PendingSegment(segment)
        channel.unacked[seq] = pending
        delay = self._transmit(src, dst, segment)
        self._arm_timer(src, dst, pending)
        if (
            self.unacked_cap is not None
            and len(channel.unacked) > self.unacked_cap
        ):
            self._truncate_log(channel)
        self.stats.record_unacked_level(len(channel.unacked))
        return delay

    def _truncate_log(self, channel: _OutChannel) -> None:
        """Enforce ``unacked_cap``: drop the oldest entries, keep the newest.

        The surviving (newest) entries keep retransmitting, so a receiver
        that comes back observes the sequence gap left by the dropped
        prefix -- the signal the anti-entropy layer turns into a state
        transfer.  Dropping the newest instead would silence the channel
        entirely and hide the loss.
        """
        overflow = len(channel.unacked) - self.unacked_cap
        for seq in sorted(channel.unacked)[:overflow]:
            pending = channel.unacked.pop(seq)
            if pending.timer is not None:
                pending.timer.cancel()
        self.stats.record_log_truncation(overflow)

    def _arm_timer(
        self, src: ReplicaId, dst: ReplicaId, pending: _PendingSegment
    ) -> None:
        # Past the point where the exponential reaches max_rto every
        # timeout equals max_rto; clamping the exponent there keeps
        # eternally retransmitting segments (truncated-log scenarios)
        # from overflowing the float.
        exponent = pending.attempts - 1
        if self.backoff > 1.0:
            saturated = math.log(self.max_rto / self.rto, self.backoff)
            exponent = min(exponent, math.ceil(saturated))
        timeout = min(self.rto * (self.backoff ** exponent), self.max_rto)
        timeout *= 1.0 + 0.1 * self.simulator.rng.random()  # jitter
        pending.timer = self.simulator.schedule(
            timeout, self._on_timeout, src, dst, pending.segment.seq
        )

    def _on_timeout(self, src: ReplicaId, dst: ReplicaId, seq: int) -> None:
        channel = self._out_channel(src, dst)
        pending = channel.unacked.get(seq)
        if pending is None:  # acked in the meantime
            return
        if src in self._down:
            # A crashed sender transmits nothing; recovery re-arms timers.
            pending.timer = None
            return
        if (
            self.max_attempts is not None
            and pending.attempts >= self.max_attempts
        ):
            del channel.unacked[seq]
            raise RetryExhaustedError(
                f"segment {seq} on channel {(src, dst)}", pending.attempts
            )
        pending.attempts += 1
        self.stats.record_retransmit(src, dst)
        self._transmit(src, dst, pending.segment)
        self._arm_timer(src, dst, pending)

    # -- receiving -------------------------------------------------------
    def _deliver(self, src: ReplicaId, dst: ReplicaId, message: Any) -> None:
        if not self._armed:
            super()._deliver(src, dst, message)
            return
        if dst in self._down:
            # Copies arriving at a crashed node are lost; the sender's
            # timer (or the recovered node's re-armed timers) retransmits.
            if isinstance(message, AckSegment):
                self.stats.record_ack_drop()
            else:
                self.stats.record_drop(src, dst)
            return
        if isinstance(message, AckSegment):
            self._on_ack(src, dst, message)
            return
        if not isinstance(message, DataSegment):
            # Raw traffic (an endpoint in ``raw_nodes``): deliver as-is.
            super()._deliver(src, dst, message)
            return
        channel = self._in_channel(src, dst)
        seq = message.seq
        if seq in channel.durable:
            # Already applied and persisted: suppress, re-ack so the
            # sender stops retransmitting.
            self.stats.record_suppressed(src, dst)
            self._send_ack(src, dst, seq)
            return
        if seq in channel.volatile:
            # Delivered upward but not yet durable: suppress the copy and
            # withhold the ack until the application confirms.
            self.stats.record_suppressed(src, dst)
            if self.ack_policy == "on_receipt":  # pragma: no cover - safety
                self._send_ack(src, dst, seq)
            return
        if self.ack_policy == "on_receipt":
            channel.durable.add(seq)
            self._send_ack(src, dst, seq)
        else:
            channel.volatile[seq] = message.payload
        self.stats.record_delivery(src, dst)
        self._handlers[dst](src, message.payload)

    def _on_ack(self, ack_src: ReplicaId, dst: ReplicaId, ack: AckSegment) -> None:
        # The ack travels dst -> src of the data channel: here ``ack_src``
        # is the data receiver and ``dst`` the original data sender.
        channel = self._out_channel(dst, ack_src)
        pending = channel.unacked.pop(ack.seq, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    def _send_ack(self, src: ReplicaId, dst: ReplicaId, seq: int) -> None:
        """Ack segment ``seq`` of data channel ``src -> dst``."""
        self.stats.record_ack(src, dst)
        self._transmit(dst, src, AckSegment(seq))

    def confirm_applied(
        self, node: ReplicaId, src: ReplicaId, payload: Any
    ) -> None:
        """The application persisted ``payload`` from ``src``: ack it.

        Looks the segment up by payload equality in the channel's volatile
        set; unknown payloads (e.g. state restored through other means)
        are ignored.
        """
        if not self._armed or self.ack_policy != "on_apply":
            return
        channel = self._in_channel(src, node)
        found = next(
            (
                seq
                for seq, candidate in channel.volatile.items()
                if candidate is payload or candidate == payload
            ),
            None,
        )
        if found is not None:
            del channel.volatile[found]
            channel.durable.add(found)
            self._send_ack(src, node, found)

    # -- anti-entropy hooks (state-transfer layer) -----------------------
    def rollback_volatile(self, node: ReplicaId) -> None:
        """Roll back every undurable delivery into ``node``.

        Called when the application sheds its pending buffer (backpressure
        overflow): the shed segments become unseen at the channel layer,
        so their senders' still-armed timers retransmit them later.
        Crash does the same thing implicitly; this is the alive-node
        variant.
        """
        for (src, dst), channel in self._in.items():
            if dst == node:
                channel.volatile.clear()

    def sync_commit(
        self,
        node: ReplicaId,
        covered: Callable[[ReplicaId, Any], bool],
    ) -> int:
        """Settle ``node``'s in-channels around an installed snapshot.

        ``covered(src, payload)`` decides whether a delivered-but-unacked
        segment is at or below the snapshot's per-sender frontier.  Covered
        segments become durable and are acked (their content arrived via
        the snapshot; the senders must stop retransmitting); the rest are
        rolled back so retransmission re-delivers them against the new
        frontier.  Returns the number of segments acked.
        """
        acked = 0
        for (src, dst), channel in self._in.items():
            if dst != node:
                continue
            for seq in [
                s for s, p in channel.volatile.items() if covered(src, p)
            ]:
                del channel.volatile[seq]
                channel.durable.add(seq)
                self._send_ack(src, node, seq)
                acked += 1
            channel.volatile.clear()
        return acked

    def compact_retransmit_log(
        self,
        src: ReplicaId,
        dst: ReplicaId,
        covered: Callable[[Any], bool],
        size_of: Optional[Callable[[Any], int]] = None,
    ) -> int:
        """Drop unacked ``src -> dst`` segments a snapshot frontier covers.

        The destination installed a snapshot whose frontier supersedes
        these segments, so retransmitting them is pure waste: the receiver
        would discard each as stale and ack it one round-trip later.
        Compaction reclaims the log immediately.  ``size_of(payload)``
        estimates the reclaimed wire bytes for the accounting counters.
        Returns the number of entries dropped.
        """
        channel = self._out.get((src, dst))
        if channel is None:
            return 0
        reclaimed_bytes = 0
        doomed = [
            seq
            for seq, pending in channel.unacked.items()
            if covered(pending.segment.payload)
        ]
        for seq in doomed:
            pending = channel.unacked.pop(seq)
            if pending.timer is not None:
                pending.timer.cancel()
            if size_of is not None:
                reclaimed_bytes += size_of(pending.segment.payload)
        if doomed:
            self.stats.record_log_compaction(len(doomed), reclaimed_bytes)
        return len(doomed)

    # -- crash / recovery ------------------------------------------------
    def crash(self, node: ReplicaId) -> None:
        """Take ``node`` down, discarding its volatile channel state.

        Segments delivered to ``node`` but not yet confirmed durable
        become unseen again (their senders still hold them unacked and
        will retransmit); the node's own retransmission timers stop.
        """
        if not self._armed:
            raise ConfigurationError(
                "crash/recovery needs the reliable-delivery layer: construct "
                "the network with a non-trivial FaultPlan or always_on=True"
            )
        if node in self._down:
            raise ConfigurationError(f"node {node!r} is already down")
        self._down.add(node)
        for (src, dst), channel in self._in.items():
            if dst == node:
                channel.volatile.clear()
        for (src, dst), channel in self._out.items():
            if src == node:
                for pending in channel.unacked.values():
                    if pending.timer is not None:
                        pending.timer.cancel()
                        pending.timer = None

    def recover(self, node: ReplicaId) -> None:
        """Bring ``node`` back: re-arm retransmission of its unacked sends.

        Incoming segments lost to the crash need no action here -- their
        senders' timers are still running and will retransmit into the
        recovered node.
        """
        if node not in self._down:
            raise ConfigurationError(f"node {node!r} is not down")
        self._down.discard(node)
        for (src, dst), channel in self._out.items():
            if src != node:
                continue
            for pending in channel.unacked.values():
                if pending.timer is None or pending.timer.cancelled:
                    # Prompt, jittered retransmit with a reset backoff.
                    pending.attempts = 1
                    self._arm_timer(src, dst, pending)

    def __repr__(self) -> str:
        state = "armed" if self._armed else "bypassed"
        return (
            f"ReliableNetwork({state}, {self.unacked_segments} unacked, "
            f"plan={self.plan})"
        )
