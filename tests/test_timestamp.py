"""Unit tests for Timestamp values and the EdgeIndexedPolicy (Section 3.3)."""

from __future__ import annotations

import pytest

from repro import EdgeIndexedPolicy, ShareGraph, Timestamp, timestamp_graph
from repro.errors import ConfigurationError, ProtocolError


@pytest.fixture
def policy(fig5_graph):
    return EdgeIndexedPolicy(fig5_graph, 1)


# ----------------------------------------------------------------------
# Timestamp value semantics
# ----------------------------------------------------------------------
def test_zeros_and_access():
    ts = Timestamp.zeros([(1, 2), (2, 1)])
    assert ts[(1, 2)] == 0
    assert ts.get((9, 9)) is None
    assert (1, 2) in ts
    assert (9, 9) not in ts
    assert len(ts) == 2


def test_replace_returns_new_value():
    ts = Timestamp.zeros([(1, 2)])
    ts2 = ts.replace({(1, 2): 5})
    assert ts[(1, 2)] == 0
    assert ts2[(1, 2)] == 5


def test_replace_unknown_edge_rejected():
    ts = Timestamp.zeros([(1, 2)])
    with pytest.raises(KeyError):
        ts.replace({(3, 4): 1})


def test_equality_and_hash():
    a = Timestamp({(1, 2): 3, (2, 1): 0})
    b = Timestamp({(2, 1): 0, (1, 2): 3})
    assert a == b
    assert hash(a) == hash(b)
    assert a != Timestamp({(1, 2): 4, (2, 1): 0})


def test_dominates():
    a = Timestamp({(1, 2): 3, (2, 1): 1})
    b = Timestamp({(1, 2): 2, (2, 1): 1})
    assert a.dominates(b)
    assert not b.dominates(a)


def test_total():
    assert Timestamp({(1, 2): 3, (2, 1): 4}).total() == 7


# ----------------------------------------------------------------------
# EdgeIndexedPolicy: advance
# ----------------------------------------------------------------------
def test_advance_increments_only_matching_out_edges(fig5_graph, policy):
    ts = policy.initial()
    # Register y at replica 1 is shared with replicas 2 and 4.
    ts2 = policy.advance(ts, "y")
    assert ts2[(1, 2)] == 1
    assert ts2[(1, 4)] == 1
    # w is shared with 4 only.
    ts3 = policy.advance(ts2, "w")
    assert ts3[(1, 4)] == 2
    assert ts3[(1, 2)] == 1
    # Private register a: no out-edge counter moves.
    ts4 = policy.advance(ts3, "a")
    assert ts4 == ts3


def test_advance_never_touches_other_replicas_edges(fig5_graph, policy):
    ts = policy.advance(policy.initial(), "y")
    for e, count in ts.items():
        if e[0] != 1:
            assert count == 0


# ----------------------------------------------------------------------
# EdgeIndexedPolicy: merge
# ----------------------------------------------------------------------
def test_merge_takes_elementwise_max_on_shared_index(fig5_graph):
    p1 = EdgeIndexedPolicy(fig5_graph, 1)
    p2 = EdgeIndexedPolicy(fig5_graph, 2)
    t1 = p1.initial().replace({(2, 1): 0, (4, 1): 3})
    t2 = p2.initial().replace({(4, 1): 1, (2, 1): 2})
    merged = p1.merge(t1, 2, t2)
    assert merged[(4, 1)] == 3
    assert merged[(2, 1)] == 2


def test_merge_ignores_edges_outside_own_index(fig5_graph):
    p1 = EdgeIndexedPolicy(fig5_graph, 1)
    p2 = EdgeIndexedPolicy(fig5_graph, 2)
    # (3,4) is in E_2 but not in E_1.
    assert (3, 4) in p2.edges and (3, 4) not in p1.edges
    t2 = p2.initial().replace({(3, 4): 7})
    merged = p1.merge(p1.initial(), 2, t2)
    assert merged.get((3, 4)) is None


# ----------------------------------------------------------------------
# EdgeIndexedPolicy: predicate J
# ----------------------------------------------------------------------
def test_ready_requires_exact_successor_on_sender_edge(fig5_graph):
    p1 = EdgeIndexedPolicy(fig5_graph, 1)
    p2 = EdgeIndexedPolicy(fig5_graph, 2)
    mine = p1.initial()
    # Sender 2 wrote register y (shared with 1 and 3): e_21 = 1.
    sender_ts = p2.advance(p2.initial(), "y")
    assert p1.ready(mine, 2, sender_ts)
    # A second update from 2 must wait for the first.
    sender_ts2 = p2.advance(sender_ts, "y")
    assert not p1.ready(mine, 2, sender_ts2)
    mine2 = p1.merge(mine, 2, sender_ts)
    assert p1.ready(mine2, 2, sender_ts2)


def test_ready_waits_for_third_party_dependencies(fig5_graph):
    p1 = EdgeIndexedPolicy(fig5_graph, 1)
    p2 = EdgeIndexedPolicy(fig5_graph, 2)
    # Sender 2's timestamp claims knowledge of an update from 4 to 1
    # (edge (4,1) is in both E_1 and E_2) that replica 1 has not applied.
    sender_ts = p2.advance(p2.initial(), "y").replace({(4, 1): 1})
    assert not p1.ready(p1.initial(), 2, sender_ts)
    mine = p1.initial().replace({(4, 1): 1})
    assert p1.ready(mine, 2, sender_ts)


def test_ready_ignores_sender_only_edges(fig5_graph):
    p1 = EdgeIndexedPolicy(fig5_graph, 1)
    p2 = EdgeIndexedPolicy(fig5_graph, 2)
    sender_ts = p2.advance(p2.initial(), "y").replace({(3, 2): 5})
    # (3,2) is incoming at 2, not at 1 -- must not block delivery at 1.
    assert p1.ready(p1.initial(), 2, sender_ts)


# ----------------------------------------------------------------------
# Construction & validation
# ----------------------------------------------------------------------
def test_default_edges_are_timestamp_graph(fig5_graph):
    policy = EdgeIndexedPolicy(fig5_graph, 1)
    assert policy.edges == timestamp_graph(fig5_graph, 1).edges
    assert policy.counters() == len(policy.edges)


def test_unknown_replica_rejected(fig5_graph):
    with pytest.raises(ConfigurationError):
        EdgeIndexedPolicy(fig5_graph, 99)


def test_missing_incident_edges_rejected(fig5_graph):
    with pytest.raises(ConfigurationError):
        EdgeIndexedPolicy(fig5_graph, 1, edges=[(1, 2), (2, 1)])


def test_unsafe_constructor_allows_missing_edges(fig5_graph):
    policy = EdgeIndexedPolicy.unsafe_with_edges(
        fig5_graph, 1, [(1, 2), (2, 1)]
    )
    assert policy.edges == {(1, 2), (2, 1)}


def test_initial_is_all_zero(policy):
    assert all(c == 0 for _, c in policy.initial().items())


def test_local_timestamp_over_another_edge_set_is_refused(fig5_graph, policy):
    """Interning hands every timestamp over ``E_1`` the policy's own
    index, however it was built; one over any other edge set is a
    caller's mistake, named rather than served.  (A *sender's* index may
    differ freely: that is every heterogeneous graph.)"""
    own = Timestamp({e: 0 for e in policy.edges})
    sender_ts = EdgeIndexedPolicy(fig5_graph, 2).initial()
    assert own.edge_index is policy.initial().edge_index
    assert sender_ts.edge_index is not own.edge_index
    assert policy.ready(own, 2, sender_ts) is False  # nothing sent yet
    for call in (
        lambda ts: policy.advance_delta(ts, "y"),
        lambda ts: policy.merge_delta(ts, 2, sender_ts),
        lambda ts: policy.ready(ts, 2, sender_ts),
        lambda ts: policy.next_seq(ts, 2),
    ):
        call(own)
        with pytest.raises(ProtocolError, match=r"\(2, 3\).*not its own edge set"):
            call(sender_ts)
