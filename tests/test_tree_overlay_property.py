"""Property-based tests for the tree overlay."""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import ShareGraph
from repro.core.timestamp_graph import all_timestamp_graphs
from repro.lowerbound import is_tree
from repro.optimizations import TreeOverlaySystem, restrict_to_tree


@st.composite
def pairwise_placements_and_tree(draw):
    """A random placement where every shared register has exactly two
    holders, plus a random spanning tree over the replicas."""
    n = draw(st.integers(min_value=3, max_value=6))
    replicas = list(range(1, n + 1))
    placements = {r: {f"p{r}"} for r in replicas}
    n_shared = draw(st.integers(min_value=1, max_value=6))
    for m in range(n_shared):
        pair = draw(
            st.lists(
                st.sampled_from(replicas), min_size=2, max_size=2, unique=True
            )
        )
        for r in pair:
            placements[r].add(f"x{m}")
    # Random spanning tree: attach each node to a random earlier node.
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    tree = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
    return placements, tree


@given(pairwise_placements_and_tree())
@settings(max_examples=40, deadline=None)
def test_plan_always_yields_tree_or_forest_metadata(setup):
    placements, tree = setup
    graph = ShareGraph(placements)
    plan = restrict_to_tree(graph, tree)
    overlay_graph = plan.share_graph()
    # The overlay share graph's edges are a subset of the tree edges.
    for (u, v) in overlay_graph.edges:
        assert tuple(sorted((u, v), key=lambda x: (str(type(x)), repr(x)))) in plan.tree_edges
    # Tree metadata bound: every replica tracks at most 2 * degree.
    graphs = all_timestamp_graphs(overlay_graph)
    for r in overlay_graph.replicas:
        assert len(graphs[r].edges) == 2 * overlay_graph.degree(r)


@given(pairwise_placements_and_tree(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_overlay_delivers_and_stays_consistent(setup, seed):
    placements, tree = setup
    graph = ShareGraph(placements)
    plan = restrict_to_tree(graph, tree)
    system = TreeOverlaySystem(plan, seed=seed)
    rng = random.Random(seed)
    shared = sorted(x for x in graph.registers if str(x).startswith("x"))
    # Single writer per register (the smallest holder): causal memory
    # guarantees convergence to the last write only without concurrent
    # writers.
    final = {}
    clock = 0.0
    for n, register in enumerate(shared * 3):
        clock += rng.uniform(0.5, 3.0)
        writer = sorted(graph.replicas_storing(register))[0]
        system.schedule_write(clock, writer, register, f"v{n}")
        final[register] = f"v{n}"
    system.run()
    result = system.check()
    assert result.ok, str(result)
    assert system.audit_stores() == []
    # Per-writer FIFO (predicate J) plus overlay causality: every holder
    # ends at the writer's final value.
    for register, value in final.items():
        for holder in graph.replicas_storing(register):
            assert system.read(holder, register) == value
