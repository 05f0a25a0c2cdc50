"""Unit tests for (i, e_jk)-loops (Definition 4)."""

from __future__ import annotations

import gc
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bench import gen
from repro import LoopFinder, ShareGraph, is_i_ejk_loop
from repro.core.loops import Loop, loop_decompositions, simple_cycles_through
from repro.errors import ConfigurationError
from repro.workloads import clique_placements, fig5_placements, ring_placements
from tests.loops_reference import reference_cycles, reference_witnesses


def _loop(anchor, left, right):
    return Loop(anchor=anchor, left=tuple(left), right=tuple(right))


def test_fig5_loop_classification(fig5_graph):
    """The paper's explicit examples: (1,2,3,4) is a (1,e_43)-loop and a
    (1,e_32)-loop; (1,4,3,2) is neither a (1,e_34)- nor a (1,e_23)-loop."""
    # (1, 2, 3, 4): left side 2,3 then right side 4 -> edge e_43.
    assert is_i_ejk_loop(fig5_graph, _loop(1, [2, 3], [4]))
    # (1, 2, 3, 4) split as left 2 / right 3,4 -> edge e_32.
    assert is_i_ejk_loop(fig5_graph, _loop(1, [2], [3, 4]))
    # (1, 4, 3, 2): left 4,3 / right 2 -> edge e_23: fails (X_21 - X_4 = {}).
    assert not is_i_ejk_loop(fig5_graph, _loop(1, [4, 3], [2]))
    # (1, 4, 3, 2): left 4 / right 3,2 -> edge e_34: fails similarly.
    assert not is_i_ejk_loop(fig5_graph, _loop(1, [4], [3, 2]))


def test_loop_edge_property():
    loop = _loop(1, [2, 3], [4, 5])
    assert loop.edge == (4, 3)
    assert loop.vertices == (1, 2, 3, 4, 5)
    assert len(loop) == 5


def test_non_simple_loop_rejected(fig5_graph):
    assert not is_i_ejk_loop(fig5_graph, _loop(1, [2, 2], [3]))


def test_anchor_inside_edge_rejected(fig5_graph):
    assert not is_i_ejk_loop(fig5_graph, _loop(1, [2], [1]))


def test_nonadjacent_vertices_rejected(fig3_graph):
    # 1 and 3 are not share-graph neighbours in Figure 3.
    assert not is_i_ejk_loop(fig3_graph, _loop(1, [3], [2]))


def test_empty_sides_rejected(fig5_graph):
    assert not is_i_ejk_loop(fig5_graph, _loop(1, [], [2]))
    assert not is_i_ejk_loop(fig5_graph, _loop(1, [2], []))


def test_triangle_loops(triangle_graph):
    """In a triangle with distinct edge registers every (i, e_jk)-loop of
    length 3 satisfies the definition."""
    assert is_i_ejk_loop(triangle_graph, _loop(1, [2], [3]))
    assert is_i_ejk_loop(triangle_graph, _loop(1, [3], [2]))


def test_simple_cycles_through_line_has_none(line4_graph):
    assert list(simple_cycles_through(line4_graph, 1)) == []


def test_simple_cycles_through_triangle(triangle_graph):
    cycles = list(simple_cycles_through(triangle_graph, 1))
    # Both orientations of the unique triangle.
    assert sorted(cycles) == [(1, 2, 3), (1, 3, 2)]


def test_simple_cycles_respect_max_len(ring6_graph):
    assert list(simple_cycles_through(ring6_graph, 1, max_len=5)) == []
    full = list(simple_cycles_through(ring6_graph, 1, max_len=6))
    assert sorted(full) == [(1, 2, 3, 4, 5, 6), (1, 6, 5, 4, 3, 2)]


def test_simple_cycles_unknown_anchor(ring6_graph):
    with pytest.raises(ConfigurationError):
        list(simple_cycles_through(ring6_graph, 99))


def test_decompositions_cover_all_splits():
    cycle = (1, 2, 3, 4)
    loops = list(loop_decompositions(cycle))
    assert [(l.left, l.right) for l in loops] == [
        ((2,), (3, 4)),
        ((2, 3), (4,)),
    ]


def test_loop_finder_witness_and_cache(fig5_graph):
    finder = LoopFinder(fig5_graph)
    witness = finder.witness(1, (4, 3))
    assert witness is not None
    assert witness.edge == (4, 3)
    assert is_i_ejk_loop(fig5_graph, witness)
    assert finder.witness(1, (3, 4)) is None
    assert finder.has_loop(1, (4, 3))
    assert not finder.has_loop(1, (3, 4))


def test_loop_finder_ring_tracks_whole_cycle(ring6_graph):
    finder = LoopFinder(ring6_graph)
    edges = finder.loop_edges(1)
    # Every non-incident directed ring edge closes a loop through 1.
    expected = {
        e for e in ring6_graph.edges if 1 not in e
    }
    assert edges == expected


def test_loop_finder_bounded(ring6_graph):
    finder = LoopFinder(ring6_graph, max_loop_len=5)
    assert finder.loop_edges(1) == frozenset()


def test_loop_finder_invalid_bound(ring6_graph):
    with pytest.raises(ConfigurationError):
        LoopFinder(ring6_graph, max_loop_len=2)


def test_loop_finder_line_no_loops(line4_graph):
    finder = LoopFinder(line4_graph)
    for r in line4_graph.replicas:
        assert finder.loop_edges(r) == frozenset()


def test_loop_finder_unknown_anchor(ring6_graph):
    with pytest.raises(ConfigurationError):
        LoopFinder(ring6_graph).loop_edges(99)


# ----------------------------------------------------------------------
# The finder against the enumerate-then-validate reference
# ----------------------------------------------------------------------
def _assert_matches_reference(graph, max_loop_len=None):
    """Same loop edges and the same witness for every anchor and every
    candidate edge; every witness passes the full validator."""
    finder = LoopFinder(graph, max_loop_len=max_loop_len)
    for anchor in graph.replicas:
        expected = reference_witnesses(graph, anchor, max_loop_len)
        assert finder.loop_edges(anchor) == frozenset(expected)
        for e in graph.edges:
            if anchor in e:
                continue
            witness = finder.witness(anchor, e)
            assert witness == expected.get(e), (anchor, e)
            assert finder.has_loop(anchor, e) == (witness is not None)
            if witness is not None:
                assert is_i_ejk_loop(graph, witness)


@st.composite
def capped_placements(draw, max_replicas=7, max_registers=8):
    """Small register sets over a few registers: rings, chords, pendant
    trees and isolated replicas all come up.  The cap is ``None`` or
    3..R for R replicas."""
    n = draw(st.integers(min_value=2, max_value=max_replicas))
    registers = [f"x{m}" for m in range(draw(st.integers(1, max_registers)))]
    placements = {
        r: draw(st.sets(st.sampled_from(registers), max_size=3))
        for r in range(1, n + 1)
    }
    cap = draw(st.none() | st.integers(min_value=3, max_value=max(3, n)))
    return placements, cap


@given(capped_placements())
@settings(max_examples=300, deadline=None)
def test_finder_matches_reference(case):
    placements, cap = case
    graph = ShareGraph(placements)
    _assert_matches_reference(graph, cap)
    for anchor in graph.replicas:
        assert list(simple_cycles_through(graph, anchor, cap)) == list(
            reference_cycles(graph, anchor, cap)
        )


def _bench_placements(generate):
    """A benchmark placement (``bench/gen.py``) at seed 1."""
    return {r: set(regs) for r, regs in generate(random.Random(1)).items()}


@pytest.mark.parametrize(
    "placements",
    [
        pytest.param(_bench_placements(gen.dense_placements), id="sim-dense-seed1"),
        pytest.param(_bench_placements(gen.tree_placements), id="sim-sparse-seed1"),
        pytest.param(fig5_placements(), id="fig5"),
        pytest.param(ring_placements(6), id="ring6"),
        pytest.param(clique_placements(24), id="clique24"),
    ],
)
def test_finder_matches_reference_fixed(placements):
    _assert_matches_reference(ShareGraph(placements))


def test_loop_search_leaves_no_cyclic_garbage():
    """A search frees what it allocates by reference counting; garbage
    for the cyclic collector would be paid for at every set-up."""
    graph = ShareGraph(_bench_placements(gen.tree_placements))
    gc.collect()
    gc.disable()
    try:
        finder = LoopFinder(graph)
        for anchor in graph.replicas:
            finder.loop_edges(anchor)
        del finder
        assert gc.collect() == 0
    finally:
        gc.enable()
