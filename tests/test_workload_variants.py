"""Tests for the Zipf workload generator."""

from __future__ import annotations

from collections import Counter

import pytest

from repro import DSMSystem, ShareGraph
from repro.errors import ConfigurationError
from repro.network.delays import UniformDelay
from repro.workloads import (
    fig5_placements,
    run_workload,
    zipf_writes,
)


@pytest.fixture
def graph():
    return ShareGraph(fig5_placements())


# ----------------------------------------------------------------------
# Zipf
# ----------------------------------------------------------------------
def test_zipf_writers_hold_their_registers(graph):
    stream = zipf_writes(graph, 200, seed=1)
    assert len(stream) == 200
    for op in stream:
        assert op.register in graph.registers_at(op.replica)


def test_zipf_is_actually_skewed(graph):
    stream = zipf_writes(graph, 2000, skew=1.5, seed=2)
    counts = Counter(op.register for op in stream)
    ranked = sorted(graph.registers, key=lambda v: (str(type(v)), repr(v)))
    # The top-ranked register dominates the bottom-ranked one.
    assert counts[ranked[0]] > 4 * max(counts[ranked[-1]], 1)


def test_zipf_deterministic(graph):
    assert zipf_writes(graph, 50, seed=3) == zipf_writes(graph, 50, seed=3)


def test_zipf_validation(graph):
    with pytest.raises(ConfigurationError):
        zipf_writes(graph, 10, skew=0)
    with pytest.raises(ConfigurationError):
        zipf_writes(graph, 10, rate=0)


def test_zipf_run_consistent(graph):
    system = DSMSystem(graph, seed=4, delay_model=UniformDelay(0.2, 8.0))
    run_workload(system, zipf_writes(graph, 250, seed=5))
    assert system.quiescent()
    assert system.check().ok

