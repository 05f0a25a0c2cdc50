"""Reliable, non-FIFO point-to-point transport over the simulation kernel.

Nodes register a message handler; :meth:`Network.send` samples a latency
from the delay model and schedules delivery.  In the base class every
message is eventually delivered exactly once (reliable channels,
Section 2), but channel order is whatever the sampled delays produce.
Fault-injecting transports (:mod:`repro.network.faults`) subclass
:class:`Network` and override the physical-transmission hooks to drop or
duplicate messages; the accounting below is shared by both.

The transport keeps :class:`NetworkStats` -- logical message counts, byte
estimates (which the metadata-overhead experiments E7/E9 report), and the
physical-layer counters the fault model adds: drops, duplicates,
retransmissions, and ack overhead, per channel and in aggregate.

Counter model
-------------
``messages_sent`` counts *logical* sends -- calls to :meth:`Network.send`.
Each logical send produces one or more *physical transmissions* (the
original copy, fault-injected duplicates, reliability-layer retransmits);
each physical transmission terminates as exactly one of **delivered**
(first copy to reach a live destination -- the handler runs),
**suppressed** (a redundant copy deduplicated by the reliability layer),
or **dropped** (lost by the fault model or addressed to a crashed node).
Ack segments are control traffic and are accounted separately; they never
count toward ``messages_sent``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    UnknownDestinationError,
)
from repro.network.delays import DelayModel, UniformDelay
from repro.sim.kernel import Simulator
from repro.types import ReplicaId

Handler = Callable[[ReplicaId, Any], None]


@dataclass
class ChannelStats:
    """Per-directed-channel traffic counters."""

    sent: int = 0  # logical sends
    delivered: int = 0  # exactly-once handler invocations
    dropped: int = 0  # physical copies lost (faults or crashed dst)
    duplicates: int = 0  # extra physical copies injected by the fault model
    retransmits: int = 0  # physical re-sends by the reliability layer
    suppressed: int = 0  # redundant copies deduplicated at the receiver
    acks: int = 0  # ack segments sent on the *reverse* channel

    @property
    def attempts(self) -> int:
        """Physical data transmissions on this channel."""
        return self.sent + self.duplicates + self.retransmits


@dataclass
class NetworkStats:
    """Aggregate traffic statistics for one run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    duplicates_injected: int = 0
    duplicates_suppressed: int = 0
    retransmits: int = 0
    acks_sent: int = 0
    acks_dropped: int = 0
    metadata_counters_sent: int = 0
    metadata_bytes_sent: int = 0
    # Retransmit-log bookkeeping (anti-entropy layer): entries removed
    # because a snapshot frontier covered them, the estimated payload
    # bytes those entries held, entries force-truncated by ``unacked_cap``,
    # and the largest per-channel retransmit log seen at any instant.
    retransmit_log_compacted: int = 0
    retransmit_log_compacted_bytes: int = 0
    retransmit_log_truncated: int = 0
    unacked_high_water: int = 0
    channels: Dict[Tuple[ReplicaId, ReplicaId], ChannelStats] = field(
        default_factory=dict
    )

    def channel(self, src: ReplicaId, dst: ReplicaId) -> ChannelStats:
        key = (src, dst)
        stats = self.channels.get(key)
        if stats is None:
            stats = self.channels[key] = ChannelStats()
        return stats

    @property
    def per_channel(self) -> Dict[Tuple[ReplicaId, ReplicaId], int]:
        """Logical send counts per channel (backward-compatible view)."""
        return {key: cs.sent for key, cs in self.channels.items() if cs.sent}

    def record_send(
        self,
        src: ReplicaId,
        dst: ReplicaId,
        counters: int = 0,
        wire_bytes: int = 0,
    ) -> None:
        self.messages_sent += 1
        self.metadata_counters_sent += counters
        self.metadata_bytes_sent += wire_bytes
        self.channel(src, dst).sent += 1

    def record_delivery(self, src: ReplicaId, dst: ReplicaId) -> None:
        self.messages_delivered += 1
        self.channel(src, dst).delivered += 1

    def record_drop(self, src: ReplicaId, dst: ReplicaId) -> None:
        self.messages_dropped += 1
        self.channel(src, dst).dropped += 1

    def record_duplicate(self, src: ReplicaId, dst: ReplicaId) -> None:
        self.duplicates_injected += 1
        self.channel(src, dst).duplicates += 1

    def record_retransmit(self, src: ReplicaId, dst: ReplicaId) -> None:
        self.retransmits += 1
        self.channel(src, dst).retransmits += 1

    def record_suppressed(self, src: ReplicaId, dst: ReplicaId) -> None:
        self.duplicates_suppressed += 1
        self.channel(src, dst).suppressed += 1

    def record_ack(self, src: ReplicaId, dst: ReplicaId) -> None:
        """An ack for channel ``src -> dst`` (travels ``dst -> src``)."""
        self.acks_sent += 1
        self.channel(src, dst).acks += 1

    def record_ack_drop(self) -> None:
        self.acks_dropped += 1

    def record_log_compaction(self, entries: int, wire_bytes: int) -> None:
        """``entries`` retransmit-log slots reclaimed by a frontier."""
        self.retransmit_log_compacted += entries
        self.retransmit_log_compacted_bytes += wire_bytes

    def record_log_truncation(self, entries: int) -> None:
        """``entries`` retransmit-log slots dropped by the hard cap."""
        self.retransmit_log_truncated += entries

    def record_unacked_level(self, level: int) -> None:
        """Observe one channel's current retransmit-log depth."""
        if level > self.unacked_high_water:
            self.unacked_high_water = level

    @property
    def attempts(self) -> int:
        """Total physical data transmissions."""
        return self.messages_sent + self.duplicates_injected + self.retransmits

    @property
    def in_flight(self) -> int:
        """Physical data copies scheduled but not yet terminated."""
        return (
            self.attempts
            - self.messages_delivered
            - self.duplicates_suppressed
            - self.messages_dropped
        )

    def assert_consistent(self) -> None:
        """Check the counter invariants; raise :class:`ProtocolError` if broken.

        Every physical transmission terminates at most once, so
        ``delivered + suppressed + dropped <= attempts`` must hold in
        aggregate and per channel -- in particular ``messages_delivered``
        never exceeds the effective sends
        (``sent + duplicates + retransmits``).
        """
        if self.in_flight < 0:
            raise ProtocolError(
                f"stats inconsistent: delivered({self.messages_delivered}) "
                f"+ suppressed({self.duplicates_suppressed}) "
                f"+ dropped({self.messages_dropped}) exceeds physical "
                f"attempts({self.attempts})"
            )
        for key, cs in self.channels.items():
            if cs.delivered + cs.suppressed + cs.dropped > cs.attempts:
                raise ProtocolError(
                    f"stats inconsistent on channel {key}: "
                    f"delivered({cs.delivered}) + suppressed({cs.suppressed}) "
                    f"+ dropped({cs.dropped}) > attempts({cs.attempts})"
                )
            if cs.delivered > cs.attempts:
                raise ProtocolError(
                    f"channel {key} delivered more than it attempted"
                )


class Network:
    """Point-to-point message layer bound to a :class:`Simulator`.

    Parameters
    ----------
    simulator:
        The event kernel providing the clock and RNG.
    delay_model:
        Latency distribution; defaults to a non-FIFO uniform model.
    """

    def __init__(
        self,
        simulator: Simulator,
        delay_model: Optional[DelayModel] = None,
    ) -> None:
        self.simulator = simulator
        self.delay_model = delay_model if delay_model is not None else UniformDelay()
        self.stats = NetworkStats()
        self._handlers: Dict[ReplicaId, Handler] = {}

    def register(self, node: ReplicaId, handler: Handler) -> None:
        """Attach ``handler(src, message)`` as node's message callback."""
        if node in self._handlers:
            raise ConfigurationError(f"node {node!r} already registered")
        self._handlers[node] = handler

    def send(
        self,
        src: ReplicaId,
        dst: ReplicaId,
        message: Any,
        metadata_counters: int = 0,
        wire_bytes: int = 0,
    ) -> float:
        """Send ``message`` from ``src`` to ``dst``; returns the sampled delay.

        ``metadata_counters`` / ``wire_bytes`` record the timestamp length
        and its varint-encoded size for metadata-overhead accounting.
        Sending to a node that never registered raises
        :class:`~repro.errors.UnknownDestinationError` (a
        :class:`~repro.errors.TransportError`, and for backward
        compatibility also a :class:`~repro.errors.ConfigurationError`).
        """
        if dst not in self._handlers:
            raise UnknownDestinationError(dst)
        self.stats.record_send(src, dst, metadata_counters, wire_bytes)
        return self._transmit(src, dst, message)

    # -- physical layer (overridden by fault-injecting transports) ------
    def _transmit(self, src: ReplicaId, dst: ReplicaId, message: Any) -> float:
        """One physical transmission: sample a delay, schedule delivery."""
        delay = self.delay_model.sample(src, dst, self.simulator.rng)
        self.simulator.schedule(delay, self._deliver, src, dst, message)
        return delay

    def _deliver(self, src: ReplicaId, dst: ReplicaId, message: Any) -> None:
        self.stats.record_delivery(src, dst)
        self._handlers[dst](src, message)
