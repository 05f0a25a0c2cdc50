"""Tests for overlapping-group causal multicast (Section 2.2)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.multicast import CausalGroupMulticast
from repro.network.delays import UniformDelay


def make_mc(**kwargs):
    groups = {"g1": {1, 2}, "g2": {2, 3}, "g3": {3, 1}}
    defaults = dict(seed=91)
    defaults.update(kwargs)
    return CausalGroupMulticast(groups, **defaults)


def test_validation():
    with pytest.raises(ConfigurationError):
        CausalGroupMulticast({})
    with pytest.raises(ConfigurationError):
        CausalGroupMulticast({"g": set()})


def test_delivery_to_group_members_only():
    mc = make_mc()
    mc.multicast(1, "g1", "hello")
    mc.run()
    assert [d.payload for d in mc.deliveries_at(2)] == ["hello"]
    assert mc.deliveries_at(3) == ()


def test_sender_delivers_locally():
    mc = make_mc()
    mc.multicast(1, "g1", "own")
    assert mc.deliveries_at(1)[0].payload == "own"


def test_sender_must_be_member():
    mc = make_mc()
    with pytest.raises(ConfigurationError):
        mc.multicast(3, "g1", "nope")
    with pytest.raises(ConfigurationError):
        mc.multicast(1, "ghost", "nope")


def test_causal_delivery_order():
    """m1 in g1 happens-before m2 in g2 (same sender 2 bridges); process 3
    is only in g2, so it sees m2 without m1 -- but causality within its
    groups holds and the checker agrees."""
    mc = make_mc(delay_model=UniformDelay(0.5, 10.0))
    mc.schedule_multicast(0.0, 1, "g1", "m1")
    mc.schedule_multicast(20.0, 2, "g2", "m2")  # after applying m1
    mc.run()
    result = mc.check()
    assert result.ok
    # Process 2 must see m1 before sending m2; the underlying updates are
    # causally ordered.
    uids = mc.system.history.all_updates()
    assert mc.system.history.happened_before(uids[0], uids[1])


def test_causal_order_within_shared_membership():
    """Process 1 is in g1 and g3: message chains through both groups must
    arrive respecting causality at 1."""
    mc = make_mc(delay_model=UniformDelay(0.5, 15.0), seed=93)
    clock = 0.0
    for n in range(20):
        clock += 3.0
        group = ("g1", "g2", "g3")[n % 3]
        sender = sorted(mc.groups[group])[n % 2]
        mc.schedule_multicast(clock, sender, group, f"m{n}")
    mc.run()
    assert mc.check().ok
    # Every delivery respects happened-before per process: for each
    # process, the sequence of delivered uids must be a linear extension
    # of the happened-before relation.
    h = mc.system.history
    for p in (1, 2, 3):
        seq = [d.uid for d in mc.deliveries_at(p)]
        for a in range(len(seq)):
            for b in range(a + 1, len(seq)):
                assert not h.happened_before(seq[b], seq[a]), (
                    f"process {p} delivered {seq[b]} effects before cause"
                )


def test_overlap_metadata_smaller_than_full_track():
    """Sparse group overlap needs fewer counters than dense overlap."""
    sparse = CausalGroupMulticast(
        {f"g{n}": {n, n + 1} for n in range(1, 6)}, seed=1
    )
    dense = CausalGroupMulticast(
        {"all": {1, 2, 3, 4, 5, 6}}, seed=1
    )
    assert max(sparse.metadata_counters().values()) <= max(
        dense.metadata_counters().values()
    )


def test_schedule_multicast_and_counts():
    mc = make_mc(seed=95)
    for n in range(9):
        mc.schedule_multicast(float(n), 2, "g1" if n % 2 else "g2", n)
    mc.run()
    assert mc.check().ok
    # 2 is in both groups; it locally delivers all 9 of its own messages.
    assert len(mc.deliveries_at(2)) == 9
