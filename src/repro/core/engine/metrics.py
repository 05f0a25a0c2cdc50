"""Streaming per-replica protocol statistics and queue introspection."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ReplicaMetrics:
    """Per-replica protocol statistics for one run.

    Apply-delay statistics are streamed (count via ``applied_remote``,
    plus running sum and max) so long chaos campaigns hold O(1) state per
    replica instead of an ever-growing list of samples.
    """

    issued: int = 0
    applied_remote: int = 0
    pending_high_water: int = 0
    # Updates judged against ``J`` (on arrival or by the drain): divided
    # by ``applied_remote`` it prices the delivery engine's wake precision.
    candidate_probes: int = 0
    apply_delay_total: float = 0.0
    apply_delay_max: float = 0.0
    # Anti-entropy counters (zero unless the sync layer is wired in):
    # snapshot installs, pending entries shed by backpressure, and stale
    # deliveries discarded because a snapshot frontier already covered
    # them.
    syncs: int = 0
    updates_shed: int = 0
    stale_discarded: int = 0
    # Stabilizing (GST) policies only: updates that crossed the
    # visibility cut, and how long after apply they did (visibility lag).
    visible_count: int = 0
    visible_lag_total: float = 0.0
    visible_lag_max: float = 0.0

    @property
    def mean_apply_delay(self) -> float:
        """Mean time an update sat in ``pending`` before applying."""
        if not self.applied_remote:
            return 0.0
        return self.apply_delay_total / self.applied_remote

    def record_apply_delay(self, delay: float) -> None:
        self.apply_delay_total += delay
        if delay > self.apply_delay_max:
            self.apply_delay_max = delay

    @property
    def mean_visible_lag(self) -> float:
        """Mean apply-to-visible delay under a stabilizing policy."""
        if not self.visible_count:
            return 0.0
        return self.visible_lag_total / self.visible_count

    def record_visible_lag(self, lag: float) -> None:
        self.visible_count += 1
        self.visible_lag_total += lag
        if lag > self.visible_lag_max:
            self.visible_lag_max = lag


@dataclass(frozen=True)
class QueueStats:
    """A point-in-time view of the delivery engine's queue state.

    ``indexed_senders`` counts the sender queues currently resolvable in
    O(1) via the sender-edge sequence index (the rest scan in arrival
    order); ``dirty`` is the size of the wake set awaiting re-examination;
    ``blocked_senders`` counts the senders filed in the blocking-counter
    index (see :meth:`ProtocolCore.blocked_on`).
    """

    pending_total: int
    senders: int
    indexed_senders: int
    dirty: int
    blocked_senders: int
