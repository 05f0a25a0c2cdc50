"""Unit tests for timestamp graphs (Definition 5)."""

from __future__ import annotations

import pytest

from repro import ShareGraph, all_timestamp_graphs, timestamp_graph
from repro.workloads import (
    clique_placements,
    line_placements,
    ring_placements,
    star_placements,
)


def test_fig5_replica1(fig5_graph):
    """Figure 5b: G_1 contains e_43 but not e_34."""
    g1 = timestamp_graph(fig5_graph, 1)
    assert (4, 3) in g1.edges
    assert (3, 4) not in g1.edges
    assert (3, 2) in g1.edges  # (1,2,3,4) is a (1, e_32)-loop
    assert (2, 3) not in g1.edges


def test_incident_edges_always_present(fig5_graph):
    for r in fig5_graph.replicas:
        g = timestamp_graph(fig5_graph, r)
        for n in fig5_graph.neighbors(r):
            assert (r, n) in g.edges
            assert (n, r) in g.edges


def test_edges_subset_of_share_graph(fig5_graph, fig6_graph):
    for graph in (fig5_graph, fig6_graph):
        for r in graph.replicas:
            g = timestamp_graph(graph, r)
            assert g.edges <= graph.edges


def test_incident_and_loop_edges_disjoint(fig5_graph):
    for r in fig5_graph.replicas:
        g = timestamp_graph(fig5_graph, r)
        assert not (g.incident & g.loop_edges)
        assert len(g) == len(g.incident) + len(g.loop_edges)


def test_edges_built_once(fig5_graph):
    """``E_i`` is one frozenset per graph, not a fresh union per read:
    every policy keys its interned edge index on it."""
    tg = timestamp_graph(fig5_graph, 1)
    assert tg.edges is tg.edges
    assert tg.edges == tg.incident | tg.loop_edges


def test_fig6_counterexample(fig6_graph):
    """The x-edge between j and k is NOT in G_i (Section 3.2)."""
    gi = timestamp_graph(fig6_graph, "i")
    assert ("j", "k") not in gi.edges
    assert ("k", "j") not in gi.edges


def test_fig8b_modified_hoop_counterexample(fig8b_graph):
    """Theorem 8 requires i to track e_kj in Figure 8b."""
    gi = timestamp_graph(fig8b_graph, "i")
    assert ("k", "j") in gi.edges


def test_tree_has_only_incident_edges():
    graph = ShareGraph(line_placements(5))
    for r in graph.replicas:
        g = timestamp_graph(graph, r)
        assert g.loop_edges == frozenset()
        assert len(g.edges) == 2 * graph.degree(r)


def test_star_hub_and_leaves():
    graph = ShareGraph(star_placements(6))
    hub = timestamp_graph(graph, 1)
    assert len(hub.edges) == 2 * 5
    leaf = timestamp_graph(graph, 3)
    assert len(leaf.edges) == 2


def test_cycle_tracks_everything():
    graph = ShareGraph(ring_placements(5))
    for r in graph.replicas:
        g = timestamp_graph(graph, r)
        assert g.edges == graph.edges
        assert len(g.edges) == 2 * 5


def test_clique_tracks_everything():
    graph = ShareGraph(clique_placements(4))
    for r in graph.replicas:
        assert timestamp_graph(graph, r).edges == graph.edges


def test_bounded_loop_len_drops_long_cycles():
    graph = ShareGraph(ring_placements(6))
    g = timestamp_graph(graph, 1, max_loop_len=5)
    assert g.loop_edges == frozenset()
    assert len(g.edges) == 4  # incident only


def test_all_timestamp_graphs_consistent_with_single(fig5_graph):
    graphs = all_timestamp_graphs(fig5_graph)
    for r in fig5_graph.replicas:
        assert graphs[r].edges == timestamp_graph(fig5_graph, r).edges


def test_vertices_cover_edge_endpoints(fig5_graph):
    g = timestamp_graph(fig5_graph, 1)
    for (u, v) in g.edges:
        assert u in g.vertices
        assert v in g.vertices


def test_contains_protocol(fig5_graph):
    g = timestamp_graph(fig5_graph, 1)
    assert (1, 2) in g
    assert (3, 4) not in g


def test_str_rendering(fig5_graph):
    text = str(timestamp_graph(fig5_graph, 1))
    assert "G_1" in text
    assert "e(4,3)" in text


@pytest.mark.parametrize("cap", [None, 3, 4, 5, 6])
def test_shared_finder_keeps_the_cap(ring6_graph, cap):
    """One finder shared across replicas gives each replica the graph it
    would get alone, under the same cap (ring6 has loops only at 6)."""
    graphs = all_timestamp_graphs(ring6_graph, max_loop_len=cap)
    for r in ring6_graph.replicas:
        assert graphs[r] == timestamp_graph(ring6_graph, r, max_loop_len=cap)
        assert bool(graphs[r].loop_edges) == (cap in (None, 6))
