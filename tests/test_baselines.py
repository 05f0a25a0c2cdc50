"""Tests for the baseline timestamp policies."""

from __future__ import annotations

import pytest

from repro import DSMSystem, ShareGraph
from repro.baselines import (
    VectorClockPolicy,
    full_track_policy,
)
from repro.errors import ConfigurationError
from repro.network.delays import UniformDelay
from repro.workloads import (
    clique_placements,
    fig5_placements,
    run_workload,
    uniform_writes,
)


# ----------------------------------------------------------------------
# Vector clocks (full replication)
# ----------------------------------------------------------------------
def test_vc_requires_full_replication(fig5_graph):
    with pytest.raises(ConfigurationError):
        VectorClockPolicy(fig5_graph, 1)


def test_vc_advance_and_ready(clique4_graph):
    p1 = VectorClockPolicy(clique4_graph, 1)
    p2 = VectorClockPolicy(clique4_graph, 2)
    t2 = p2.advance(p2.initial(), "x0")
    assert t2[2] == 1
    assert p1.ready(p1.initial(), 2, t2)
    t2b = p2.advance(t2, "x0")
    assert not p1.ready(p1.initial(), 2, t2b)


def test_vc_ready_blocks_on_third_party(clique4_graph):
    p1 = VectorClockPolicy(clique4_graph, 1)
    sender_ts = (
        VectorClockPolicy(clique4_graph, 2)
        .initial()
        .replace({2: 1, 3: 1})
    )
    assert not p1.ready(p1.initial(), 2, sender_ts)
    mine = p1.initial().replace({3: 1})
    assert p1.ready(mine, 2, sender_ts)


def test_vc_counters_is_replica_count(clique4_graph):
    assert VectorClockPolicy(clique4_graph, 1).counters() == 4


def test_vc_end_to_end_causal():
    placements = clique_placements(4, registers=2)
    system = DSMSystem(
        placements,
        policy_factory=lambda g, r: VectorClockPolicy(g, r),
        seed=9,
        delay_model=UniformDelay(0.1, 5.0),
    )
    stream = uniform_writes(system.graph, 150, seed=10)
    run_workload(system, stream)
    assert system.quiescent()
    assert system.check().ok


def test_vc_unknown_replica(clique4_graph):
    with pytest.raises(ConfigurationError):
        VectorClockPolicy(clique4_graph, 99)


# ----------------------------------------------------------------------
# Full-Track
# ----------------------------------------------------------------------
def test_full_track_uses_all_edges(fig5_graph):
    policy = full_track_policy(fig5_graph, 1)
    assert policy.edges == fig5_graph.edges


def test_full_track_end_to_end():
    system = DSMSystem(
        fig5_placements(),
        policy_factory=full_track_policy,
        seed=21,
        delay_model=UniformDelay(0.1, 5.0),
    )
    stream = uniform_writes(system.graph, 200, seed=22)
    run_workload(system, stream)
    assert system.quiescent()
    assert system.check().ok


def test_full_track_never_smaller_than_ours(fig5_graph, fig6_graph):
    from repro import timestamp_graph

    for graph in (fig5_graph, fig6_graph):
        for r in graph.replicas:
            ours = len(timestamp_graph(graph, r).edges)
            theirs = full_track_policy(graph, r).counters()
            assert theirs >= ours
