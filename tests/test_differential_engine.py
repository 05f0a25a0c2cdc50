"""Differential test: optimized engine vs the pre-optimization baseline.

:class:`tests.engine_reference.LegacyEdgeIndexedPolicy` is the verbatim
dict-walking policy from before the plan-compiled fast paths, and --
because it defines none of the optional engine hooks (``*_delta``,
``blocking_edge``, ``sender_seq``) -- it also drives the replica's
conservative full-rescan delivery path.  Running both policies over
identical seeded traces must produce *byte-identical* histories and
final timestamps: every optimization is a pure strength reduction, never
a behaviour change.

The matrix covers the topology families (tree, ring, clique, dense
random), both quiescent and high-rate (deep pending queues) workloads,
and lossy/duplicating channels via the fault plan (retransmission and
dedup make delivery timing interact with readiness re-checks).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.system import DSMSystem
from repro.network.faults import ChannelFaults, FaultPlan
from repro.workloads import (
    clique_placements,
    random_placements,
    ring_placements,
    run_workload,
    tree_placements,
    uniform_writes,
)
from tests.engine_reference import legacy_policy_factory

Trace = Tuple[
    Tuple[Tuple[str, object, object, float], ...],  # history events
    Dict[object, Tuple[Tuple[object, int], ...]],  # final timestamps
    bool,  # checker verdict
]


def run_trace(
    placements,
    writes: int,
    rate: float,
    policy_factory=None,
    faults: Optional[ChannelFaults] = None,
    batch_window: float = 0.0,
) -> Trace:
    kwargs = {"batch_window": batch_window}
    if policy_factory is not None:
        kwargs["policy_factory"] = policy_factory
    if faults is not None:
        kwargs["fault_plan"] = FaultPlan(
            seed=99, default=faults, horizon=10_000.0
        )
    system = DSMSystem(placements, seed=7, **kwargs)
    stream = uniform_writes(system.graph, writes, rate=rate, seed=13)
    run_workload(system, stream)
    events = tuple(
        (e.kind, e.replica, e.uid, e.time) for e in system.history.events
    )
    stamps = {
        r: tuple(sorted(rep.timestamp.items(), key=lambda kv: str(kv[0])))
        for r, rep in system.replicas.items()
    }
    return events, stamps, system.check().ok


CASES: List[Tuple[str, object, int, float]] = [
    ("tree-8", tree_placements(8), 300, 1.0),
    ("ring-8", ring_placements(8), 300, 1.0),
    ("clique-6", clique_placements(6), 200, 1.0),
    ("dense-12", random_placements(12, 30, 5, seed=11), 250, 40.0),
]

FAULTS = ChannelFaults(loss=0.15, duplication=0.10)


@pytest.mark.parametrize(
    "name,placements,writes,rate", CASES, ids=[c[0] for c in CASES]
)
def test_identical_traces_reliable(name, placements, writes, rate) -> None:
    old = run_trace(placements, writes, rate, legacy_policy_factory)
    new = run_trace(placements, writes, rate)
    assert old[0] == new[0], f"{name}: history events diverged"
    assert old[1] == new[1], f"{name}: final timestamps diverged"
    assert old[2] and new[2], f"{name}: checker verdicts diverged"


@pytest.mark.parametrize(
    "name,placements,writes,rate", CASES, ids=[c[0] for c in CASES]
)
def test_identical_traces_chaos(name, placements, writes, rate) -> None:
    """Same matrix under lossy, duplicating channels.

    Retransmissions stress duplicate-seq handling in the indexed queues
    (a duplicate degrades that sender's index to the scan path, which
    must still apply in the historical order)."""
    old = run_trace(placements, writes, rate, legacy_policy_factory, FAULTS)
    new = run_trace(placements, writes, rate, faults=FAULTS)
    assert old[0] == new[0], f"{name}: history events diverged under faults"
    assert old[1] == new[1], f"{name}: final timestamps diverged under faults"
    assert old[2] == new[2], f"{name}: checker verdicts diverged under faults"


@pytest.mark.parametrize(
    "name,placements,writes,rate", CASES, ids=[c[0] for c in CASES]
)
def test_identical_traces_vectorized(
    name, placements, writes, rate, force_lane_merge
) -> None:
    """The lane fold against the flat-list oracle, which has no frame
    hooks and so takes every frame member by member: with a flush
    window on both sides and the lane gate forced open, folding must be
    invisible in the trace (ring-8, clique-6 and dense-12 fold; tree-8
    has no two replicas on one index and declines every frame)."""
    force_lane_merge(True)
    old = run_trace(
        placements, writes, rate, legacy_policy_factory, batch_window=2.0
    )
    new = run_trace(placements, writes, rate, batch_window=2.0)
    assert old[0] == new[0], f"{name}: history events diverged (vectorized)"
    assert old[1] == new[1], f"{name}: timestamps diverged (vectorized)"
    assert old[2] and new[2], f"{name}: checker verdicts diverged (vectorized)"


def test_identical_traces_vectorized_chaos(force_lane_merge) -> None:
    """One dense case under loss/duplication with the lanes forced on.
    The ARQ layer acks single updates, so no frame exists to fold: the
    retransmitted duplicates must reach the same per-update path, and
    the same trace, as the walk."""
    force_lane_merge(True)
    name, placements, writes, rate = CASES[-1]
    old = run_trace(placements, writes, rate, legacy_policy_factory, FAULTS)
    new = run_trace(placements, writes, rate, faults=FAULTS)
    assert old[0] == new[0], f"{name}: history events diverged under faults"
    assert old[1] == new[1], f"{name}: timestamps diverged under faults"
    assert old[2] == new[2], f"{name}: checker verdicts diverged under faults"


def test_legacy_policy_uses_conservative_path() -> None:
    """The baseline must actually exercise the pre-optimization engine
    path, or the differential test proves nothing."""
    system = DSMSystem(
        tree_placements(4), seed=7, policy_factory=legacy_policy_factory
    )
    replica = next(iter(system.replicas.values()))
    assert replica.core._advance_delta is None
    assert replica.core._merge_delta is None
    assert replica.core._blocking_edge is None
    assert not replica.core._fifo


def test_optimized_policy_uses_fast_path() -> None:
    system = DSMSystem(tree_placements(4), seed=7)
    replica = next(iter(system.replicas.values()))
    assert replica.core._advance_delta is not None
    assert replica.core._merge_delta is not None
    assert replica.core._blocking_edge is not None
    assert replica.core._fifo


def test_vectorized_policy_exposes_run_hooks() -> None:
    """The engine must actually see the run-apply hooks on the default
    policy, or the vectorized differential never exercises the fast
    path."""
    system = DSMSystem(tree_placements(4), seed=7)
    replica = next(iter(system.replicas.values()))
    assert replica.core._merge_run is not None
    assert replica.core._blocked_many is not None
