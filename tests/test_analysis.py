"""Tests for the structural analysis module and the J ablations."""

from __future__ import annotations

from repro import DSMSystem, ShareGraph
from repro.analysis import (
    density_sweep,
    loop_length_histogram,
    tracking_fraction,
)
from repro.baselines.ablations import (
    LaxSenderEdgePolicy,
    NoThirdPartyCheckPolicy,
    lax_sender_factory,
    no_third_party_factory,
)
from repro.network.delays import UniformDelay
from repro.workloads import (
    clique_placements,
    fig5_placements,
    line_placements,
    ring_placements,
    run_workload,
    uniform_writes,
)


# ----------------------------------------------------------------------
# Structure metrics
# ----------------------------------------------------------------------
def test_tracking_fraction_extremes():
    assert all(
        v == 1.0
        for v in tracking_fraction(ShareGraph(clique_placements(5))).values()
    )
    line = tracking_fraction(ShareGraph(line_placements(6)))
    assert all(0 < v < 1 for v in line.values())
    # Leaves track less than interior replicas.
    assert line[1] < line[3]


def test_tracking_fraction_isolated():
    graph = ShareGraph({1: {"a"}, 2: {"b"}})
    assert tracking_fraction(graph) == {1: 0.0, 2: 0.0}


def test_loop_length_histogram_triangle(triangle_graph):
    assert loop_length_histogram(triangle_graph, 1) == {3: 2}


def test_loop_length_histogram_tree_empty():
    graph = ShareGraph(line_placements(5))
    assert loop_length_histogram(graph, 3) == {}


def test_density_sweep_shape():
    table = density_sweep(n=5, registers=6, factors=[1, 3, 5], seeds=[0])
    fractions = [float(v) for v in table.column("mean fraction")]
    assert fractions[0] == 0.0
    assert fractions[-1] == 1.0


# ----------------------------------------------------------------------
# Predicate ablations
# ----------------------------------------------------------------------
def _run(policy_factory, seed):
    system = DSMSystem(
        fig5_placements(),
        policy_factory=policy_factory,
        seed=seed,
        delay_model=UniformDelay(0.1, 15.0),
    )
    stream = uniform_writes(system.graph, 200, rate=5.0, seed=seed + 1)
    run_workload(system, stream)
    return system.check()


def test_no_third_party_check_violates():
    total = sum(len(_run(no_third_party_factory, s).safety) for s in range(4))
    assert total > 0


def test_lax_sender_edge_violates():
    total = sum(len(_run(lax_sender_factory, s).safety) for s in range(4))
    assert total > 0


def test_full_predicate_control_is_clean():
    for seed in range(4):
        assert _run(None, seed).ok


def test_ablation_policies_share_edge_sets(fig5_graph):
    full = NoThirdPartyCheckPolicy(fig5_graph, 1)
    lax = LaxSenderEdgePolicy(fig5_graph, 1)
    from repro import timestamp_graph

    expected = timestamp_graph(fig5_graph, 1).edges
    assert full.edges == expected
    assert lax.edges == expected
