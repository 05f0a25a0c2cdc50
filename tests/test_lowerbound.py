"""Tests for Section 4: closed forms and conflict graphs."""

from __future__ import annotations

import itertools
import random

import pytest

from repro import ShareGraph
from repro.errors import ConfigurationError
from repro.lowerbound import (
    algorithm_counters,
    clique_number_bound,
    clique_timestamp_space,
    conflict_graph,
    conflicts,
    cycle_lower_bound_bits,
    cycle_lower_bound_counters,
    greedy_chromatic_upper_bound,
    is_clique,
    is_cycle,
    is_tree,
    tree_lower_bound_bits,
    tree_lower_bound_counters,
)
from repro.lowerbound.conflict import ConflictOracle, edge_order, enumerate_vectors
from repro.workloads import (
    clique_placements,
    line_placements,
    ring_placements,
    star_placements,
    tree_placements,
)


# ----------------------------------------------------------------------
# Structure predicates
# ----------------------------------------------------------------------
def test_structure_predicates():
    assert is_tree(ShareGraph(line_placements(5)))
    assert is_tree(ShareGraph(star_placements(5)))
    assert not is_tree(ShareGraph(ring_placements(5)))
    assert is_cycle(ShareGraph(ring_placements(5)))
    assert not is_cycle(ShareGraph(line_placements(5)))
    assert is_clique(ShareGraph(clique_placements(5)))
    assert not is_clique(ShareGraph(ring_placements(5)))
    # A triangle is simultaneously a cycle and a clique.
    assert is_cycle(ShareGraph(ring_placements(3)))
    assert is_clique(ShareGraph(ring_placements(3)))


# ----------------------------------------------------------------------
# Closed forms and tightness
# ----------------------------------------------------------------------
def test_tree_bound_tight_everywhere():
    for seed in range(3):
        graph = ShareGraph(tree_placements(8, branching=3, seed=seed))
        for r in graph.replicas:
            assert tree_lower_bound_counters(graph, r) == algorithm_counters(
                graph, r
            )


def test_tree_bound_rejects_non_tree():
    with pytest.raises(ConfigurationError):
        tree_lower_bound_counters(ShareGraph(ring_placements(4)), 1)


def test_tree_bits():
    graph = ShareGraph(line_placements(3))
    assert tree_lower_bound_bits(graph, 2, m=4) == 4 * 2.0
    with pytest.raises(ConfigurationError):
        tree_lower_bound_bits(graph, 2, m=1)


def test_cycle_bound_tight():
    for n in (3, 5, 7):
        graph = ShareGraph(ring_placements(n))
        assert cycle_lower_bound_counters(graph) == 2 * n
        for r in graph.replicas:
            assert algorithm_counters(graph, r) == 2 * n


def test_cycle_bits_and_validation():
    graph = ShareGraph(ring_placements(4))
    assert cycle_lower_bound_bits(graph, m=2) == 8.0
    with pytest.raises(ConfigurationError):
        cycle_lower_bound_counters(ShareGraph(line_placements(4)))


def test_clique_space():
    assert clique_timestamp_space(3, 4) == 81
    with pytest.raises(ConfigurationError):
        clique_timestamp_space(0, 4)


# ----------------------------------------------------------------------
# Conflicts (Definition 13, counting abstraction)
# ----------------------------------------------------------------------
def test_condition1_zero_vector_never_conflicts():
    graph = ShareGraph(line_placements(3))
    order = edge_order(graph)
    v_zero = tuple(0 for _ in order)
    v_one = tuple(1 for _ in order)
    assert not conflicts(graph, 2, v_zero, v_one)


def test_incident_difference_conflicts():
    graph = ShareGraph(line_placements(3))
    order = edge_order(graph)
    v1 = tuple(1 for _ in order)
    idx = order.index((1, 2))
    v2 = tuple(2 if i == idx else 1 for i in range(len(order)))
    assert conflicts(graph, 2, v1, v2)
    assert conflicts(graph, 2, v2, v1)  # symmetric


def test_non_incident_difference_alone_does_not_conflict_on_tree():
    """On a tree there are no loops, so differences on edges not incident
    to the anchor are invisible to it."""
    graph = ShareGraph(line_placements(3))
    order = edge_order(graph)
    # Anchor is leaf 1; differ only on edge (2,3).
    idx = order.index((2, 3))
    v1 = tuple(1 for _ in order)
    v2 = tuple(2 if i == idx else 1 for i in range(len(order)))
    assert not conflicts(graph, 1, v1, v2)


def test_loop_difference_conflicts_on_triangle(triangle_graph):
    order = edge_order(triangle_graph)
    idx = order.index((2, 3))
    v1 = tuple(1 for _ in order)
    v2 = tuple(2 if i == idx else 1 for i in range(len(order)))
    # (2,3) closes a loop through anchor 1.
    assert conflicts(triangle_graph, 1, v1, v2)


def test_identical_vectors_do_not_conflict(triangle_graph):
    order = edge_order(triangle_graph)
    v = tuple(1 for _ in order)
    assert not conflicts(triangle_graph, 1, v, v)


def test_enumerate_vectors_counts():
    graph = ShareGraph(line_placements(3))
    assert len(list(enumerate_vectors(graph, 2))) == 2 ** 4
    with pytest.raises(ConfigurationError):
        list(enumerate_vectors(graph, 0))


def test_conflict_graph_matches_tree_closed_form():
    """chi >= m^{2 N_i}: for the middle of a 3-path with m=2 the clique
    bound is exactly 16 and greedy confirms chi == 16."""
    graph = ShareGraph(line_placements(3))
    g = conflict_graph(graph, 2, m=2)
    assert clique_number_bound(g) == 16
    assert greedy_chromatic_upper_bound(g) == 16


def test_conflict_graph_leaf_sees_only_its_edges():
    graph = ShareGraph(line_placements(3))
    g = conflict_graph(graph, 1, m=2)
    assert clique_number_bound(g) == 4  # m^{2 N_1} = 2^2


def test_conflict_graph_triangle_matches_cycle_form():
    graph = ShareGraph(ring_placements(3))
    g = conflict_graph(graph, 1, m=2)
    # 2n log m bits -> m^{2n} timestamps = 2^6 = 64.
    assert clique_number_bound(g) == 64


def test_conflict_graph_size_guard():
    graph = ShareGraph(ring_placements(4))
    with pytest.raises(ConfigurationError):
        conflict_graph(graph, 1, m=3, max_vectors=10)


def test_oracle_reuse(triangle_graph):
    oracle = ConflictOracle(triangle_graph, 1)
    order = edge_order(triangle_graph)
    v1 = tuple(1 for _ in order)
    v2 = tuple(2 for _ in order)
    assert oracle.conflicts(v1, v2)
    with pytest.raises(ConfigurationError):
        ConflictOracle(triangle_graph, 99)


def test_empty_conflict_graph_bounds():
    empty = {}
    assert clique_number_bound(empty) == 0
    assert greedy_chromatic_upper_bound(empty) == 0


@pytest.mark.parametrize("seed", range(40))
def test_conflict_graph_bounds_match_networkx(seed):
    """Bron--Kerbosch and largest-first greedy agree with networkx's
    exact clique search and ``strategy_largest_first`` colouring."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    nodes = rng.sample(range(100), rng.randint(1, 24))
    density = rng.random()
    g = {v: set() for v in nodes}
    for a, b in itertools.combinations(nodes, 2):
        if rng.random() < density:
            g[a].add(b)
            g[b].add(a)
    ref = nx.Graph()
    ref.add_nodes_from(nodes)
    ref.add_edges_from((a, b) for a in g for b in g[a])
    assert clique_number_bound(g) == nx.max_weight_clique(ref, weight=None)[1]
    colouring = nx.coloring.greedy_color(ref, strategy="largest_first")
    assert greedy_chromatic_upper_bound(g) == 1 + max(colouring.values())


def test_distinct_timestamps_respect_bound():
    """The algorithm must use at least as many distinct timestamps as the
    clique bound predicts (Definition 12 / Theorem 15), measured across
    executions on the middle replica of a 3-path."""
    from repro import DSMSystem

    graph = ShareGraph(line_placements(3))
    m = 2
    finals = set()
    # One execution per combination of update counts on the four edges
    # incident to replica 2 (counts 1..m each, as in Definition 12).
    import itertools

    for counts in itertools.product(range(1, m + 1), repeat=4):
        in12, in32, out21, out23 = counts
        system = DSMSystem(graph, seed=7, track_timestamps=True)
        for n in range(in12):
            system.client(1).write("s1_2", n)
        for n in range(in32):
            system.client(3).write("s2_3", n)
        for n in range(out21):
            system.client(2).write("s1_2", n)
        for n in range(out23):
            system.client(2).write("s2_3", n)
        system.run()
        finals.add(system.replica(2).timestamp)
    # The algorithm distinguishes all m^{2 N_i} = 16 causal pasts --
    # exactly matching the conflict-graph clique bound (tightness).
    assert len(finals) == m ** 4
