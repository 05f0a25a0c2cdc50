"""Event-driven simulation kernel.

A :class:`Simulator` owns a virtual clock and a binary-heap agenda of
callbacks.  Ties on the clock are broken by a monotonically increasing
sequence number, which makes execution order fully deterministic for a
given schedule -- an essential property for the causal-consistency
experiments, which must be replayable from a seed.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError


@dataclass(eq=False)
class Event:
    """A scheduled callback.  Not orderable: the agenda holds ``(time,
    seq, event)`` tuples, so the heap compares two numbers in C and never
    reaches the event (``seq`` is unique)."""

    time: float
    seq: int
    callback: Callable[..., None]
    args: tuple = ()
    cancelled: bool = False
    done: bool = False


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Allows a pending event to be cancelled without disturbing the heap.
    """

    def __init__(self, event: Event, simulator: "Simulator") -> None:
        self._event = event
        self._simulator = simulator

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        event = self._event
        if event.cancelled or event.done:
            return  # cancelling twice, or after execution, is a no-op
        event.cancelled = True
        self._simulator._note_cancelled()


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  All
        stochastic components (delay models, workloads) must draw from
        :attr:`rng` so a run is reproducible from this single seed.
    """

    #: Compact the agenda once at least this many cancelled events are
    #: buried in it (and they outnumber the live ones) -- keeps heap
    #: operations O(log live) under cancellation-heavy fault schedules.
    _COMPACT_MIN = 64

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self._agenda: List[Tuple[float, int, Event]] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._events_executed: int = 0
        self._live: int = 0
        self._cancelled_pending: int = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for budget accounting)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events still on the agenda (including cancelled)."""
        return len(self._agenda)

    @property
    def live_events(self) -> int:
        """Number of non-cancelled events still on the agenda."""
        return self._live

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._cancelled_pending += 1
        # Lazy purge: cancelled events normally pop off the heap for free,
        # but if they pile up (mass link-down cancellations) rebuild once.
        if (
            self._cancelled_pending >= self._COMPACT_MIN
            and self._cancelled_pending * 2 > len(self._agenda)
        ):
            self._agenda = [e for e in self._agenda if not e[2].cancelled]
            heapq.heapify(self._agenda)
            self._cancelled_pending = 0

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        event = Event(self._now + delay, self._seq, callback, args)
        heapq.heappush(self._agenda, (event.time, self._seq, event))
        self._seq += 1
        self._live += 1
        return EventHandle(event, self)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self._now, callback, *args)

    def step(self) -> bool:
        """Execute the next event.  Returns False when the agenda is empty."""
        while self._agenda:
            event = heapq.heappop(self._agenda)[2]
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            event.done = True
            self._live -= 1
            self._now = event.time
            self._events_executed += 1
            event.callback(*event.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the agenda drains (or a budget is reached).

        Parameters
        ----------
        until:
            Stop once the clock would pass this virtual time.  Events at
            exactly ``until`` still execute.
        max_events:
            Stop after executing this many events (guards against
            accidental livelock in experiments).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        try:
            while self._agenda:
                if max_events is not None and executed >= max_events:
                    return
                head = self._agenda[0][2]
                if head.cancelled:
                    heapq.heappop(self._agenda)
                    self._cancelled_pending -= 1
                    continue
                if until is not None and head.time > until:
                    return
                if self.step():
                    executed += 1
        finally:
            self._running = False

    def drained(self) -> bool:
        """True when no live (non-cancelled) event remains.  O(1)."""
        return self._live == 0
