"""Send-side batching: coalesce per-destination updates into one frame.

The core still emits one :class:`~repro.core.engine.effects.Send` per
recipient per write -- batching is an adapter concern, because only the
adapter knows its transport's framing and its runtime's notion of a
flush window (virtual time in the simulator, loop time under asyncio,
``call_later`` on the TCP links).  The pieces here are runtime-neutral:

* :class:`UpdateBatch` -- the one frame type, one sender's updates for
  one destination in send order, with the summed transport accounting.
  The adapter skeleton passes it through the runtime's existing message
  path as is; receivers unwrap it into a single
  ``ProtocolCore.remote_batch`` call so readiness bookkeeping runs once
  per frame instead of once per update.
* :class:`BatchAccumulator` -- buffers ``Send`` effects per destination
  and hands back :class:`UpdateBatch` frames, either eagerly when a
  destination reaches ``max_updates`` or when the adapter's flush window
  closes.

The accumulator never owns a timer: the adapter skeleton
(:mod:`repro.core.engine.adapter`) decides *when* to call
:meth:`BatchAccumulator.flush` through the runtime's ``_call_later``,
which is what keeps this module pure and the flush-window semantics
per-runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.types import ReplicaId, Update


@dataclass(frozen=True)
class UpdateBatch:
    """One batch frame: a single sender's updates for one destination.

    ``updates`` preserves send order; predicate-J delivery does the
    actual ordering work, the envelope just amortizes per-message
    transport and bookkeeping costs.  ``metadata_counters`` and
    ``wire_bytes`` are the sums over the member updates, so transport
    accounting matches the unbatched path to the byte.
    """

    dst: ReplicaId
    updates: Tuple[Update, ...]
    metadata_counters: int = 0
    wire_bytes: int = 0

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[Update]:
        return iter(self.updates)


class _DestBuffer:
    __slots__ = ("updates", "counters", "wire_bytes")

    def __init__(self) -> None:
        self.updates: List[Update] = []
        self.counters = 0
        self.wire_bytes = 0


class BatchAccumulator:
    """Coalesces ``Send`` effects into per-destination batch frames.

    Parameters
    ----------
    max_updates:
        Cap on the number of updates per frame.  When a destination's
        buffer reaches it, :meth:`add` returns the full frame for
        immediate dispatch (bounding both frame size and the latency a
        long window could add under sustained load).
    """

    def __init__(self, max_updates: int = 64) -> None:
        if max_updates < 1:
            raise ValueError("max_updates must be >= 1")
        self.max_updates = max_updates
        self._buffers: Dict[ReplicaId, _DestBuffer] = {}
        self._pending = 0

    @property
    def pending(self) -> int:
        """Number of buffered updates across all destinations."""
        return self._pending

    def add(
        self,
        dst: ReplicaId,
        update: Update,
        metadata_counters: int = 0,
        wire_bytes: int = 0,
    ) -> Optional[UpdateBatch]:
        """Buffer one outgoing update; returns a frame if ``dst`` is full."""
        buf = self._buffers.get(dst)
        if buf is None:
            buf = self._buffers[dst] = _DestBuffer()
        buf.updates.append(update)
        buf.counters += metadata_counters
        buf.wire_bytes += wire_bytes
        self._pending += 1
        if len(buf.updates) >= self.max_updates:
            return self._drain_dst(dst, buf)
        return None

    def _drain_dst(self, dst: ReplicaId, buf: _DestBuffer) -> UpdateBatch:
        del self._buffers[dst]
        self._pending -= len(buf.updates)
        return UpdateBatch(
            dst, tuple(buf.updates), buf.counters, buf.wire_bytes
        )

    def flush(self) -> List[UpdateBatch]:
        """Close the window: one frame per destination, insertion order."""
        if not self._buffers:
            return []
        frames = [
            UpdateBatch(dst, tuple(buf.updates), buf.counters, buf.wire_bytes)
            for dst, buf in self._buffers.items()
        ]
        self._buffers.clear()
        self._pending = 0
        return frames


__all__ = ["BatchAccumulator", "UpdateBatch"]
