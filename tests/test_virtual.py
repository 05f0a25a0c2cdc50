"""Figure 13 / Appendix D: breaking the ring with virtual registers.

Breaking the 6-ring's edge 6-1 is the ring restricted to the path tree
6-5-4-3-2-1: the ring-closing register rides carrier (virtual)
registers along the path.
"""

from __future__ import annotations

import pytest

from repro import ShareGraph
from repro.core.timestamp_graph import timestamp_graph
from repro.errors import ConfigurationError
from repro.lowerbound import is_tree
from repro.optimizations import TreeOverlaySystem, restrict_to_tree
from repro.workloads import ring_placements


@pytest.fixture
def ring6():
    return ShareGraph(ring_placements(6))


@pytest.fixture
def plan(ring6):
    return restrict_to_tree(ring6, [(6, 5), (5, 4), (4, 3), (3, 2), (2, 1)])


def test_plan_breaks_the_edge(ring6, plan):
    broken = plan.share_graph()
    assert ring6.is_edge(1, 6)
    # 1 and 6 are no longer share-graph neighbours via the ring-closing
    # register; only the path remains (plus carriers along it).
    assert set(plan.rerouted) == {"s1_6"}
    assert "s1_6" not in broken.registers
    assert "s1_6@1" in broken.registers_at(1)
    assert "s1_6@6" in broken.registers_at(6)
    assert not broken.is_edge(1, 6)
    assert is_tree(broken)


def test_broken_graph_has_tree_metadata(ring6, plan):
    """The headline: cycle timestamps (2n) collapse to tree timestamps."""
    before = len(timestamp_graph(ring6, 3).edges)
    after = len(timestamp_graph(plan.share_graph(), 3).edges)
    assert before == 12
    assert after == 4  # 2 * N_i on the path


def test_plan_validation(ring6):
    with pytest.raises(ConfigurationError):
        # 1-3 only: the path misses replicas 4-6.
        restrict_to_tree(ring6, [(1, 2), (2, 3)])
    with pytest.raises(ConfigurationError):
        # 7 is not a replica.
        restrict_to_tree(ring6, [(6, 5), (5, 4), (4, 3), (3, 2), (2, 7)])
    with pytest.raises(ConfigurationError):
        # Five edges, but 1-2-3 closes a cycle and 4-5-6 is cut off.
        restrict_to_tree(ring6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6)])
    with pytest.raises(ConfigurationError):
        # Not simple: the path 6-5-4-3-5-2 revisits 5 and never reaches 1.
        restrict_to_tree(ring6, [(6, 5), (5, 4), (4, 3), (3, 5), (5, 2)])


def test_shared_register_must_be_private_to_endpoints():
    # x is held by 1, 3 and 4; on the path 4-1-2-3 its holders are not
    # a connected subtree, and only 2-holder registers can be re-routed.
    graph = ShareGraph({1: {"x", "a"}, 2: {"a", "b"}, 3: {"b", "x"}, 4: {"x", "a"}})
    with pytest.raises(ConfigurationError):
        restrict_to_tree(graph, [(4, 1), (1, 2), (2, 3)])
    # A re-routed register stays writable only at its two holders.
    ring = ShareGraph(ring_placements(6))
    system = TreeOverlaySystem(
        restrict_to_tree(ring, [(6, 5), (5, 4), (4, 3), (3, 2), (2, 1)])
    )
    with pytest.raises(ConfigurationError):
        system.write(3, "s1_6", "not-a-holder")


def test_value_propagates_forward(plan):
    system = TreeOverlaySystem(plan, seed=61)
    system.write(6, "s1_6", "payload-fwd")
    system.run()
    assert system.read(1, "s1_6") == "payload-fwd"
    assert system.check().ok
    assert system.audit_stores() == []


def test_value_propagates_backward(plan):
    system = TreeOverlaySystem(plan, seed=62)
    system.write(1, "s1_6", "payload-bwd")
    system.run()
    assert system.read(6, "s1_6") == "payload-bwd"
    assert system.check().ok
    assert system.audit_stores() == []


def test_other_registers_unaffected(plan):
    system = TreeOverlaySystem(plan, seed=63)
    system.write(2, "s2_3", "direct")
    system.run()
    assert system.read(3, "s2_3") == "direct"


def test_sequence_of_rerouted_writes_arrives_in_order(plan):
    system = TreeOverlaySystem(plan, seed=64)
    for n in range(10):
        system.schedule_write(float(n), 6, "s1_6", n)
    system.run()
    assert system.read(1, "s1_6") == 9
    assert system.check().ok
    assert system.audit_stores() == []


def test_delivery_latency_recorded(plan):
    system = TreeOverlaySystem(plan, seed=65)
    system.write(6, "s1_6", "timed")
    system.run()
    (delivery,) = system.deliveries["s1_6"]
    assert delivery.hops == 5
    # Five hops of the default UniformDelay(0.5, ...) each.
    assert delivery.latency >= 5 * 0.5


def test_path_hops(plan):
    hops, at = 0, 6
    while at != 1:
        at = plan.next_hop[at][1]
        hops += 1
    assert hops == 5
