"""Tests for the sharding layer: plans, exactness, runtime, audits."""

from __future__ import annotations

import pytest

from repro.core.timestamp_graph import all_timestamp_graphs
from repro.errors import ConfigurationError
from repro.shard import (
    OVERLAY_PREFIX,
    ShardedSystem,
    make_shard_plan,
    monolithic_metadata_bytes_per_op,
    social_shard_plan,
)
from repro.workloads.operations import run_workload, zipf_writes


def small_plan(cross=True):
    """Three 3-member groups on a path tree, one optional cross register."""
    placements = {
        "ga": {1: {"a1"}, 2: {"a2", "ashared"}, 3: {"a3", "ashared"}},
        "gb": {4: {"b1"}, 5: {"b2", "bshared"}, 6: {"b3", "bshared"}},
        "gc": {7: {"c1"}, 8: {"c2", "cshared"}, 9: {"c3", "cshared"}},
    }
    cross_registers = {"hot": ["ga", "gb", "gc"]} if cross else {}
    return make_shard_plan(
        placements, [("ga", "gb"), ("gb", "gc")], cross_registers
    )


# ----------------------------------------------------------------------
# Exactness: per-group timestamp graphs equal the global computation
# ----------------------------------------------------------------------
def test_replica_edges_match_exact_global_computation():
    plan = social_shard_plan(replicas=16, group_size=4, seed=1)
    graph = plan.share_graph()
    exact = all_timestamp_graphs(graph)
    sharded = plan.replica_edges(graph)
    assert set(sharded) == set(exact)
    for rid in graph.replicas:
        assert sharded[rid] == exact[rid].edges, rid


def test_replica_edges_match_exact_on_handmade_plan():
    plan = small_plan()
    graph = plan.share_graph()
    exact = all_timestamp_graphs(graph)
    sharded = plan.replica_edges(graph)
    for rid in graph.replicas:
        assert sharded[rid] == exact[rid].edges, rid


# ----------------------------------------------------------------------
# Plan construction & validation
# ----------------------------------------------------------------------
def test_placements_compose_groups_overlay_and_aliases():
    plan = small_plan()
    placements = plan.placements()
    # Contacts (first member of each group) carry the overlay carriers.
    assert plan.overlay_register("ga", "gb") in placements[1]
    assert plan.overlay_register("ga", "gb") in placements[4]
    assert plan.overlay_register("gb", "gc") in placements[7]
    # ...and a per-group alias of the cross register.
    assert plan.alias("ga", "hot") in placements[1]
    assert plan.alias("gc", "hot") in placements[7]
    # Non-contacts see neither.
    assert not any(
        str(r).startswith(OVERLAY_PREFIX) or str(r).endswith("@ga")
        for r in placements[2]
    )


def test_logical_graph_has_no_overlay_artifacts():
    plan = small_plan()
    logical = plan.logical_graph()
    assert "hot" in logical.registers
    assert not any(
        str(r).startswith(OVERLAY_PREFIX) or "@" in str(r)
        for r in logical.registers
    )
    # The cross register sits directly at every subscriber contact.
    assert logical.replicas_storing("hot") == frozenset({1, 4, 7})


def test_plan_validation_errors():
    base = {
        "ga": {1: {"a"}},
        "gb": {2: {"b"}},
    }
    tree = [("ga", "gb")]
    with pytest.raises(ConfigurationError):  # shared replica
        make_shard_plan({"ga": {1: {"a"}}, "gb": {1: {"b"}}}, tree)
    with pytest.raises(ConfigurationError):  # shared register name
        make_shard_plan({"ga": {1: {"x"}}, "gb": {2: {"x"}}}, tree)
    with pytest.raises(ConfigurationError):  # reserved prefix
        make_shard_plan(
            {"ga": {1: {f"{OVERLAY_PREFIX}x"}}, "gb": {2: {"b"}}}, tree
        )
    with pytest.raises(ConfigurationError):  # not a spanning tree
        make_shard_plan(base, [])
    with pytest.raises(ConfigurationError):  # contact outside its group
        make_shard_plan(base, tree, contacts={"ga": 2, "gb": 2})
    with pytest.raises(ConfigurationError):  # <2 subscriber groups
        make_shard_plan(base, tree, {"hot": ["ga"]})
    with pytest.raises(ConfigurationError):  # cross/in-group collision
        make_shard_plan(base, tree, {"a": ["ga", "gb"]})
    with pytest.raises(ConfigurationError):  # unknown subscriber
        make_shard_plan(base, tree, {"hot": ["ga", "gz"]})


def test_social_plan_is_deterministic_and_sized():
    a = social_shard_plan(replicas=32, group_size=8, seed=5)
    b = social_shard_plan(replicas=32, group_size=8, seed=5)
    assert a == b
    info = a.describe()
    assert info["replicas"] == 32
    assert info["groups"] == 4
    assert info["tree_edges"] == 3
    with pytest.raises(ConfigurationError):
        social_shard_plan(replicas=30, group_size=8)


# ----------------------------------------------------------------------
# Runtime: cross-group propagation over the overlay
# ----------------------------------------------------------------------
def test_cross_register_reaches_every_subscriber_group():
    plan = small_plan()
    system = ShardedSystem(plan, seed=2)
    system.write(1, "a1", "local")
    system.write(1, "hot", "fan-out")
    system.run()
    assert system.quiescent()
    for contact in (1, 4, 7):
        assert system.read(contact, "hot") == "fan-out"
    # ga -> gb is one hop, ga -> gc two (path tree).
    assert sorted(d.hops for d in system.deliveries["hot"]) == [1, 2]
    assert system.check().ok
    assert system.audit_stores() == []


def test_cross_write_must_come_from_a_subscriber_contact():
    plan = small_plan()
    system = ShardedSystem(plan, seed=2)
    with pytest.raises(ConfigurationError):
        system.write(2, "hot", "not-a-contact")


def test_concurrent_cross_writes_settle_on_a_maximal_value():
    plan = small_plan()
    system = ShardedSystem(plan, seed=9)
    system.schedule_write(0.1, 1, "hot", "from-ga")
    system.schedule_write(0.1001, 7, "hot", "from-gc")
    for t, rid, reg in ((0.2, 2, "a2"), (0.3, 5, "b2"), (0.4, 8, "c2")):
        system.schedule_write(t, rid, reg, f"v{rid}")
    system.run()
    assert system.quiescent()
    assert system.check().ok
    assert system.audit_stores() == []
    for contact in (1, 4, 7):
        assert system.read(contact, "hot") in {"from-ga", "from-gc"}


def test_end_to_end_zipf_run_checks_and_audits_clean():
    plan = social_shard_plan(replicas=32, group_size=8, seed=4)
    system = ShardedSystem(plan, seed=11)
    stream = zipf_writes(
        plan.logical_graph(), 400, rate=200.0, skew=0.8, seed=5
    )
    run_workload(system, stream)
    assert system.quiescent()
    assert system.check().ok
    assert system.audit_stores() == []
    # The overlay actually carried traffic (cross registers were hit).
    assert system.deliveries


def test_scalar_and_vectorized_sharded_runs_agree(force_lane_merge):
    plan = social_shard_plan(replicas=16, group_size=4, seed=6)

    def run(lanes):
        force_lane_merge(lanes)
        system = ShardedSystem(plan, seed=3)
        stream = zipf_writes(
            plan.logical_graph(), 200, rate=100.0, skew=0.9, seed=2
        )
        run_workload(system, stream)
        assert system.check().ok
        assert system.audit_stores() == []
        stores = {
            rid: dict(system.replicas[rid].store)
            for rid in system.graph.replicas
        }
        events = [
            (e.kind, e.replica, e.uid, round(e.time, 9))
            for e in system.history.events
        ]
        return stores, events

    assert run(False) == run(True)


# ----------------------------------------------------------------------
# Metadata economy vs the monolithic share graph
# ----------------------------------------------------------------------
def test_sharded_metadata_beats_monolithic_by_5x():
    plan = social_shard_plan(replicas=128, seed=3)
    system = ShardedSystem(plan, seed=7, batch_window=4.0)
    stream = zipf_writes(
        plan.logical_graph(), 400, rate=400.0, skew=0.8, seed=13
    )
    run_workload(system, stream)
    assert system.check().ok
    assert system.audit_stores() == []
    sharded = system.metadata_bytes_per_op(len(stream))
    mono = monolithic_metadata_bytes_per_op(
        plan, 240, rate=400.0, skew=0.8
    )
    assert sharded > 0
    assert mono / sharded >= 5.0
    # Seeded, so a tight ceiling: 1.25x the 115.8 B/op recorded at full
    # size (3,000 writes); these 400 measure 122.3.
    assert sharded <= 144.8


def test_per_replica_timestamps_stay_group_sized():
    plan = social_shard_plan(replicas=128, seed=3)
    system = ShardedSystem(plan, seed=7)
    counters = system.metrics().timestamp_counters
    # 128 replicas, yet nobody tracks more than a small multiple of a
    # single group's edge count (the monolithic full-track policy would
    # put every one of the thousands of global edges in every timestamp).
    assert len(counters) == 128
    assert max(counters.values()) < 120
