"""Unit tests for ShareGraph (Definition 3)."""

from __future__ import annotations

import pytest

from repro import ShareGraph
from repro.errors import ConfigurationError, UnknownReplicaError
from repro.workloads import clique_placements, fig3_placements


def test_fig3_edges(fig3_graph):
    assert fig3_graph.is_edge(1, 2)
    assert fig3_graph.is_edge(2, 3)
    assert fig3_graph.is_edge(3, 4)
    assert not fig3_graph.is_edge(1, 3)
    assert not fig3_graph.is_edge(1, 4)
    assert not fig3_graph.is_edge(2, 4)


def test_edges_are_directed_pairs(fig3_graph):
    for (i, j) in fig3_graph.edges:
        assert (j, i) in fig3_graph.edges


def test_shared_sets(fig3_graph):
    assert fig3_graph.shared(2, 3) == {"y"}
    assert fig3_graph.shared(1, 4) == frozenset()
    # X_ij is symmetric.
    assert fig3_graph.shared(3, 2) == fig3_graph.shared(2, 3)


def test_replicas_storing(fig3_graph):
    assert fig3_graph.replicas_storing("x") == {1, 2}
    assert fig3_graph.replicas_storing("missing") == frozenset()


def test_neighbors_sorted_and_correct(fig3_graph):
    assert fig3_graph.neighbors(2) == (1, 3)
    assert fig3_graph.degree(2) == 2
    assert fig3_graph.degree(1) == 1


def test_registers_at_unknown_replica(fig3_graph):
    with pytest.raises(UnknownReplicaError):
        fig3_graph.registers_at(99)
    with pytest.raises(UnknownReplicaError):
        fig3_graph.neighbors(99)


def test_empty_placement_rejected():
    with pytest.raises(ConfigurationError):
        ShareGraph({})


def test_replica_with_no_registers_is_isolated():
    graph = ShareGraph({1: {"x"}, 2: {"x"}, 3: set()})
    assert graph.degree(3) == 0
    assert not graph.is_connected()


def test_full_replication_detection():
    assert ShareGraph(clique_placements(3)).is_full_replication()
    assert not ShareGraph(fig3_placements()).is_full_replication()


def test_connectivity(fig3_graph):
    assert fig3_graph.is_connected()
    disconnected = ShareGraph({1: {"x"}, 2: {"x"}, 3: {"y"}, 4: {"y"}})
    assert not disconnected.is_connected()


def test_recipients_excludes_issuer(fig3_graph):
    assert fig3_graph.recipients(2, "x") == (1,)
    assert fig3_graph.recipients(2, "y") == (3,)


def test_recipients_requires_local_register(fig3_graph):
    with pytest.raises(ConfigurationError):
        fig3_graph.recipients(1, "z")


def test_with_additional_placements(fig3_graph):
    augmented = fig3_graph.with_additional_placements({1: {"z"}})
    assert augmented.is_edge(1, 3)
    assert augmented.is_edge(1, 4)
    # Original untouched.
    assert not fig3_graph.is_edge(1, 3)


def test_with_additional_placements_unknown_replica(fig3_graph):
    with pytest.raises(UnknownReplicaError):
        fig3_graph.with_additional_placements({99: {"x"}})


def test_equality_and_hash():
    a = ShareGraph(fig3_placements())
    b = ShareGraph(fig3_placements())
    assert a == b
    assert hash(a) == hash(b)
    assert a != ShareGraph({1: {"x"}, 2: {"x"}})


def test_contains_and_len(fig3_graph):
    assert 1 in fig3_graph
    assert 99 not in fig3_graph
    assert len(fig3_graph) == 4


def test_heterogeneous_replica_ids():
    graph = ShareGraph({"a": {"x"}, 1: {"x"}, (2, 3): {"x"}})
    assert len(graph.edges) == 6
    assert graph.is_connected()


def test_recipients_is_memoized_in_a_stable_order():
    """The simulator samples channel delays in recipient order, so every
    call must hand back the same tuple."""
    graph = ShareGraph({r: {"x"} for r in range(1, 9)})
    first = graph.recipients(3, "x")
    assert first == tuple(k for k in graph.replicas_storing("x") if k != 3)
    assert graph.recipients(3, "x") is first
    # A derived graph is a new object with its own memo.
    wider = graph.with_additional_placements({1: {"y"}, 3: {"y"}})
    assert wider.recipients(3, "y") == (1,)
    assert graph.recipients(3, "x") is first
