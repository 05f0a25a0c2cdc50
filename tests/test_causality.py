"""Unit tests for History: happened-before and causal pasts."""

from __future__ import annotations

import tracemalloc

import pytest

from repro import History, UpdateId
from repro.errors import ProtocolError


def u(issuer, seq):
    return UpdateId(issuer, seq)


def test_paper_figure2_example():
    """Figure 2: u1 -> u2 -> u3, u4 concurrent with u1 and u2."""
    h = History()
    u1, u2, u3, u4 = u(1, 1), u(1, 2), u(2, 1), u(3, 1)
    h.record_issue(1, u1, "x", 0.0)
    h.record_issue(1, u2, "y", 1.0)  # u1 applied at r1 before r1 issues u2
    h.record_apply(2, u2, 2.0)
    h.record_issue(2, u3, "z", 3.0)  # u2 applied at r2 before r2 issues u3
    h.record_issue(3, u4, "w", 1.5)
    h.record_apply(3, u3, 4.0)

    assert h.happened_before(u1, u2)
    assert h.happened_before(u2, u3)
    assert h.happened_before(u1, u3)  # transitivity
    assert h.concurrent(u1, u4)
    assert h.concurrent(u2, u4)
    assert not h.happened_before(u3, u1)


def test_issue_implies_applied_at_issuer():
    h = History()
    h.record_issue(1, u(1, 1), "x", 0.0)
    assert h.applied_at(u(1, 1)) == {1}


def test_causal_past_of_update():
    h = History()
    h.record_issue(1, u(1, 1), "x", 0.0)
    h.record_apply(2, u(1, 1), 1.0)
    h.record_issue(2, u(2, 1), "y", 2.0)
    assert h.causal_past(u(2, 1)) == {u(1, 1)}
    assert h.causal_past(u(1, 1)) == frozenset()


def test_replica_causal_past_includes_closure():
    h = History()
    h.record_issue(1, u(1, 1), "x", 0.0)
    h.record_apply(2, u(1, 1), 1.0)
    h.record_issue(2, u(2, 1), "y", 2.0)
    # Replica 3 applies only u(2,1); its causal past must still contain
    # u(1,1) (Definition 6 closes over happened-before).
    h.record_apply(3, u(2, 1), 3.0)
    assert h.replica_causal_past(3) == {u(1, 1), u(2, 1)}


def test_duplicate_issue_rejected():
    h = History()
    h.record_issue(1, u(1, 1), "x", 0.0)
    with pytest.raises(ProtocolError):
        h.record_issue(1, u(1, 1), "x", 1.0)


def test_issuer_mismatch_rejected():
    h = History()
    with pytest.raises(ProtocolError):
        h.record_issue(2, u(1, 1), "x", 0.0)


def test_apply_before_issue_rejected():
    h = History()
    with pytest.raises(ProtocolError):
        h.record_apply(1, u(1, 1), 0.0)


def test_updates_by_and_order():
    h = History()
    h.record_issue(1, u(1, 1), "x", 0.0)
    h.record_issue(2, u(2, 1), "y", 0.5)
    h.record_issue(1, u(1, 2), "x", 1.0)
    assert h.updates_by(1) == (u(1, 1), u(1, 2))
    assert h.all_updates() == (u(1, 1), u(2, 1), u(1, 2))


def test_client_access_propagates_dependencies():
    """Definition 25 (ii): client carries dependencies across replicas."""
    h = History()
    h.record_issue(1, u(1, 1), "x", 0.0)
    # Client reads at replica 1, then writes at replica 2.
    h.record_client_access("c", 1, 1.0)
    h.record_issue(2, u(2, 1), "y", 2.0, client="c")
    assert h.happened_before(u(1, 1), u(2, 1))
    assert h.client_causal_past("c") == {u(1, 1)}


def test_deferred_access_token_freezes_serve_time_state():
    """Lossy channels: the client's past grows by the replica's state at
    serve time (the token), not at the later acceptance time."""
    h = History()
    h.record_issue(1, u(1, 1), "x", 0.0)
    token = h.access_token(1)  # the response leaves replica 1 here
    h.record_issue(1, u(1, 2), "x", 1.0)  # replica moves on meanwhile
    h.record_client_access("c", 1, 2.0, token=token)  # client accepts
    assert h.client_causal_past("c") == {u(1, 1)}
    h.record_issue(2, u(2, 1), "y", 3.0, client="c")
    assert h.happened_before(u(1, 1), u(2, 1))
    assert not h.happened_before(u(1, 2), u(2, 1))


def test_client_without_access_propagates_nothing():
    h = History()
    h.record_issue(1, u(1, 1), "x", 0.0)
    h.record_issue(2, u(2, 1), "y", 1.0, client="fresh")
    assert h.concurrent(u(1, 1), u(2, 1))


def test_len_and_repr():
    h = History()
    h.record_issue(1, u(1, 1), "x", 0.0)
    assert len(h) == 1
    assert "1 updates" in repr(h)


def _recorded_bytes_per_update(count, replicas=16):
    uids = [UpdateId(k % replicas, k // replicas + 1) for k in range(count)]
    times = [float(k) for k in range(count)]
    tracemalloc.start()
    try:
        h = History()
        for uid, t in zip(uids, times):
            h.record_issue(uid.issuer, uid, "x", t)
            h.record_apply((uid.issuer + 1) % replicas, uid, t)
        used = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return used / count


def test_recording_memory_per_update_is_flat():
    """A causal past is one frontier of per-issuer lanes, not a set as
    long as the run: recording 8x the updates costs about 8x the bytes."""
    small = _recorded_bytes_per_update(2_000)
    large = _recorded_bytes_per_update(16_000)
    assert large <= 1.5 * small, (small, large)
