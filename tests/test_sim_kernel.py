"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, seen.append, "c")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_ties_break_by_schedule_order():
    sim = Simulator()
    seen = []
    for label in ("first", "second", "third"):
        sim.schedule(1.0, seen.append, label)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    times = []
    sim.schedule(2.5, lambda: times.append(sim.now))
    sim.schedule(7.25, lambda: times.append(sim.now))
    sim.run()
    assert times == [2.5, 7.25]
    assert sim.now == 7.25


def test_schedule_during_execution():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(1.0, lambda: seen.append("nested"))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["first", "nested"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == ["early"]
    sim.run()
    assert seen == ["early", "late"]


def test_run_until_includes_boundary_event():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "edge")
    sim.run(until=5.0)
    assert seen == ["edge"]


def test_max_events_budget():
    sim = Simulator()
    seen = []
    for n in range(10):
        sim.schedule(float(n), seen.append, n)
    sim.run(max_events=4)
    assert seen == [0, 1, 2, 3]


def test_cancellation():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "cancelled")
    sim.schedule(2.0, seen.append, "kept")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert seen == ["kept"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule_at(5.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [5.0]


def test_seeded_rng_reproducible():
    a = Simulator(seed=42)
    b = Simulator(seed=42)
    assert [a.rng.random() for _ in range(5)] == [
        b.rng.random() for _ in range(5)
    ]


def test_events_executed_counter():
    sim = Simulator()
    for n in range(3):
        sim.schedule(float(n), lambda: None)
    sim.run()
    assert sim.events_executed == 3


def test_drained():
    sim = Simulator()
    assert sim.drained()
    handle = sim.schedule(1.0, lambda: None)
    assert not sim.drained()
    handle.cancel()
    assert sim.drained()


def test_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()


def test_drained_is_constant_time_bookkeeping():
    """``drained`` reads a live counter; it must stay correct through
    schedule / cancel / execute without scanning the agenda."""
    sim = Simulator()
    handles = [sim.schedule(float(n), lambda: None) for n in range(10)]
    assert sim.live_events == 10 and not sim.drained()
    for h in handles[:4]:
        h.cancel()
    assert sim.live_events == 6
    sim.run()
    assert sim.live_events == 0 and sim.drained()
    assert sim.events_executed == 6


def test_cancel_after_execution_is_noop():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.drained()
    handle.cancel()  # already executed; must not corrupt the counters
    assert not handle.cancelled
    assert sim.live_events == 0 and sim.drained()


def test_double_cancel_counts_once():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.live_events == 1
    sim.run()
    assert sim.events_executed == 1


def test_mass_cancellation_compacts_agenda():
    """When cancelled events dominate the agenda the kernel rebuilds it
    (lazy purge) so the heap does not carry dead weight."""
    sim = Simulator()
    live = sim.schedule(1000.0, lambda: None)
    doomed = [sim.schedule(float(n + 1), lambda: None) for n in range(200)]
    assert sim.pending_events == 201
    for h in doomed:
        h.cancel()
    # Compaction (>= _COMPACT_MIN cancelled, majority dead) must have
    # fired: at most a sub-threshold tail of dead events may remain.
    assert sim.pending_events <= 1 + Simulator._COMPACT_MIN
    assert sim.live_events == 1 and not sim.drained()
    sim.run()
    assert sim.events_executed == 1 and sim.now == 1000.0


def test_cancelled_head_popped_without_execution():
    sim = Simulator()
    seen = []
    first = sim.schedule(1.0, seen.append, "dead")
    sim.schedule(2.0, seen.append, "alive")
    first.cancel()
    # Below the compaction threshold the dead head is skipped on pop.
    assert sim.pending_events == 2
    sim.run()
    assert seen == ["alive"]
    assert sim.pending_events == 0


class _Uncomparable:
    """Stands in for callbacks/arguments that define no ordering."""

    def __init__(self, seen, label):
        self.seen, self.label = seen, label

    def __call__(self, *args):
        self.seen.append((self.label, len(args)))

    def __lt__(self, other):  # pragma: no cover - must never be reached
        raise AssertionError("the agenda compared two callbacks")

    __gt__ = __le__ = __ge__ = __eq__ = __lt__
    __hash__ = None


def test_equal_time_events_never_compare_callbacks_or_args():
    """Agenda entries are ``(time, seq, event)``: ties are settled by the
    unique sequence number in C, before the event is ever looked at."""
    sim = Simulator()
    seen = []
    for n in range(50):
        sim.schedule(1.0, _Uncomparable(seen, n), _Uncomparable(seen, "arg"))
    sim.run()
    assert seen == [(n, 1) for n in range(50)]


def test_compaction_purges_tuple_entries_and_keeps_order():
    sim = Simulator()
    seen = []
    keep = [sim.schedule(5.0, seen.append, n) for n in range(3)]
    doomed = [sim.schedule(2.0, seen.append, "dead") for _ in range(200)]
    for handle in doomed:
        handle.cancel()
    assert sim.pending_events <= len(keep) + Simulator._COMPACT_MIN
    late = sim.schedule(5.0, seen.append, "late")
    keep[1].cancel()
    sim.run()
    assert seen == [0, 2, "late"]
    assert sim.pending_events == 0 and sim.drained()
    assert not late.cancelled


def test_events_are_not_orderable():
    from repro.sim import Event

    a, b = Event(1.0, 0, print), Event(2.0, 1, print)
    with pytest.raises(TypeError):
        a < b  # noqa: B015
    assert a != Event(1.0, 0, print)  # identity, not field, equality
