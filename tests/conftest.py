"""Shared fixtures: canonical placements and small prebuilt systems."""

from __future__ import annotations

import sys

import pytest

from repro import ShareGraph
from repro.workloads import (
    clique_placements,
    fig3_placements,
    fig5_placements,
    fig6_counterexample_placements,
    fig8b_placements,
    line_placements,
    ring_placements,
)


@pytest.fixture
def fig3_graph() -> ShareGraph:
    return ShareGraph(fig3_placements())


@pytest.fixture
def fig5_graph() -> ShareGraph:
    return ShareGraph(fig5_placements())


@pytest.fixture
def fig6_graph() -> ShareGraph:
    return ShareGraph(fig6_counterexample_placements())


@pytest.fixture
def fig8b_graph() -> ShareGraph:
    return ShareGraph(fig8b_placements())


@pytest.fixture
def ring6_graph() -> ShareGraph:
    return ShareGraph(ring_placements(6))


@pytest.fixture
def line4_graph() -> ShareGraph:
    return ShareGraph(line_placements(4))


@pytest.fixture
def clique4_graph() -> ShareGraph:
    return ShareGraph(clique_placements(4))


@pytest.fixture
def triangle_graph() -> ShareGraph:
    return ShareGraph(
        {1: {"a", "c"}, 2: {"a", "b"}, 3: {"b", "c"}}
    )


@pytest.fixture
def force_lane_merge(monkeypatch):
    """Take the policy's merge-path decision away from it.

    ``force_lane_merge(True)`` sends every merge between two timestamps
    on one interned index, and every batch frame of them, however
    narrow, down the lane-packed path (width threshold 0);
    ``force_lane_merge(False)`` puts that path out of reach, so every
    merge is the plan walk and every frame drains member by member.
    Undone at teardown.
    """
    from repro.core import timestamp

    def force(lanes: bool) -> None:
        monkeypatch.setattr(
            timestamp, "LANE_MIN_WIDTH", 0 if lanes else sys.maxsize
        )

    return force
