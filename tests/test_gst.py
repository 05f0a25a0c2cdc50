"""GST protocol tests (arXiv:1803.05575 layered on the policy surface).

Covers: end-to-end visibility-cut runs over every topology shape
(including a shard-plan placement), the property that a GST run passes
causal checking at *every* stabilization cut (not only the final one),
the regression that a deliberately-early cut is caught, the edge/GST
crossover measured by seeded edge and GST runs on five placements, and
GST over the real-socket TCP runtime where stabilize frames
piggyback on heartbeats.
"""

import asyncio
import random

import pytest

from repro.checker.check import check_history
from repro.core.causality import History
from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem
from repro.errors import ProtocolError
from repro.gst import GstPolicy
from repro.types import UpdateId
from repro.workloads import (
    clique_placements,
    random_placements,
    ring_placements,
    run_workload,
    tree_placements,
    uniform_writes,
)


def _shard_placements(replicas=8, shared_per_group=3, seed=5):
    from repro.shard import social_shard_plan

    return social_shard_plan(
        replicas=replicas,
        group_size=4,
        shared_per_group=shared_per_group,
        replication=2,
        cross=2,
        seed=seed,
    ).placements()


TOPOLOGIES = {
    "tree-7": lambda: tree_placements(7),
    "ring-8": lambda: ring_placements(8),
    "clique-5": lambda: clique_placements(5),
    "dense-9": lambda: random_placements(9, 24, 5, seed=2),
    "shard-8": _shard_placements,
}


# ----------------------------------------------------------------------
# End-to-end: GST on every topology shape, checker in visibility mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_gst_end_to_end(name):
    system = DSMSystem(TOPOLOGIES[name](), seed=3, policy_factory=GstPolicy)
    assert system.stabilizing
    stream = uniform_writes(system.graph, 120, rate=10.0, seed=7)
    for t in range(4, 20, 4):  # stabilization rounds mid-run
        system.schedule_stabilize(float(t))
    run_workload(system, stream)
    rounds = system.settle_visibility()
    assert rounds >= 0
    assert all(r.unstable_count == 0 for r in system.replicas.values())
    report = system.check()  # visibility mode auto-detected
    assert report.ok, report
    metrics = system.metrics()
    assert metrics.visible_count > 0
    assert metrics.mean_visible_lag > 0.0


def test_gst_reads_serve_the_cut_not_the_applies():
    placements = {"a": ["x"], "b": ["x"]}
    system = DSMSystem(placements, seed=1, policy_factory=GstPolicy)
    system.client("a").write("x", 42)
    system.run()
    # Applied everywhere, but no stabilization round has run: invisible.
    assert system.client("b").read("x") is None
    assert system.replicas["b"].unstable_count > 0
    system.settle_visibility()
    assert system.client("b").read("x") == 42
    assert system.check().ok


# ----------------------------------------------------------------------
# Property: the checker passes at every stabilization cut
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gst_checker_passes_at_every_cut(seed):
    """Interleave write bursts with stabilization rounds; after every
    round the (partial-visibility) history must already check clean."""
    placements = random_placements(8, 20, 4, seed=seed)
    system = DSMSystem(placements, seed=seed, policy_factory=GstPolicy)
    rng = random.Random(seed)
    rids = sorted(system.replicas, key=str)
    cuts_seen = set()
    for _ in range(6):
        for _ in range(20):
            rid = rng.choice(rids)
            registers = sorted(system.graph.registers_at(rid), key=str)
            system.client(rid).write(rng.choice(registers), rng.random())
        system.run()
        system.stabilize_all()
        system.run()
        cuts_seen.add(
            tuple(r.visible_cut for _, r in sorted(system.replicas.items(), key=lambda kv: str(kv[0])))
        )
        report = system.check(require_liveness=False)
        assert report.ok, report
    assert len(cuts_seen) > 1  # the cut genuinely advanced mid-run
    system.settle_visibility()
    assert system.check().ok


def test_deliberately_early_cut_is_caught():
    """A 'visible' record whose causal dependency is not yet visible at
    the same replica must produce a safety violation in visibility mode
    (and the same history without the premature record must pass)."""
    graph = ShareGraph({"a": ["x"], "b": ["x"]})
    u1, u2 = UpdateId("a", 1), UpdateId("a", 2)

    def record(premature):
        history = History()
        history.record_issue("a", u1, "x", 1.0)
        history.record_issue("a", u2, "x", 2.0)  # past contains u1
        history.record_apply("b", u1, 3.0)
        history.record_apply("b", u2, 4.0)
        history.record_visible("a", u1, 5.0)
        history.record_visible("a", u2, 5.0)
        if not premature:
            history.record_visible("b", u1, 6.0)
        history.record_visible("b", u2, 7.0)  # early when u1 invisible
        return history

    good = check_history(
        record(premature=False), graph, require_liveness=False, visibility=True
    )
    assert good.ok, good
    bad = check_history(
        record(premature=True), graph, require_liveness=False, visibility=True
    )
    assert not bad.ok
    assert any(
        v.applied == u2 and v.missing == u1 and v.replica == "b"
        for v in bad.safety
    )


def test_visible_before_apply_is_rejected():
    history = History()
    u1 = UpdateId("a", 1)
    history.record_issue("a", u1, "x", 1.0)
    with pytest.raises(ProtocolError):
        history.record_visible("b", u1, 2.0)  # never applied at b


# ----------------------------------------------------------------------
# Edge/GST crossover on live runs
# ----------------------------------------------------------------------
#: Trees and rings where edge-indexed metadata is near-free, dense
#: graphs where GST's two-counter updates win bytes, and a shard-plan
#: placement -- each as ``(placements, writes, rate)``.
POLICY_MATRIX = {
    "tree-16": (lambda: tree_placements(16), 300, 20.0),
    "ring-12": (lambda: ring_placements(12), 300, 20.0),
    "clique-8": (lambda: clique_placements(8), 200, 40.0),
    "dense-24": (lambda: random_placements(24, 80, 10, seed=11), 600, 150.0),
    "small-shard": (lambda: _shard_placements(16, 4, seed=3), 300, 80.0),
}


def _policy_run(placements, writes, rate, policy_factory=None):
    """Metadata bytes per write and mean visibility lag of one seeded,
    checked run.  A stabilizing policy gets ~24 rounds across the run,
    so its lag reflects the gossip cadence, not one final settle."""
    system = DSMSystem(placements, seed=7, policy_factory=policy_factory)
    stream = uniform_writes(system.graph, writes, rate=rate, seed=13)
    if system.stabilizing:
        horizon = writes / rate
        interval = max(1.0, horizon / 24.0)
        t = interval
        while t <= horizon + 2 * interval:
            system.schedule_stabilize(t)
            t += interval
    run_workload(system, stream)
    if system.stabilizing:
        system.settle_visibility()
    report = system.check()
    assert report.ok, report
    metrics = system.metrics()
    return metrics.metadata_bytes_sent / writes, metrics.mean_visible_lag


@pytest.fixture(scope="module")
def policy_matrix():
    """Per placement of :data:`POLICY_MATRIX`: the measured
    ``(bytes per write, mean lag)`` of edge and GST."""
    rows = {}
    for name, (placements, writes, rate) in POLICY_MATRIX.items():
        rows[name] = (
            _policy_run(placements(), writes, rate),
            _policy_run(placements(), writes, rate, GstPolicy),
        )
    return rows


def test_adaptive_crossover_live(policy_matrix):
    """The two seeded facts of arXiv:1803.05575's trade hold on live
    runs: edge-indexed wins visibility lag on every placement, GST wins
    metadata bytes on the dense graph."""
    for name, ((_, edge_lag), (_, gst_lag)) in policy_matrix.items():
        assert edge_lag < gst_lag, (name, edge_lag, gst_lag)
    (edge_bytes, _), (gst_bytes, _) = policy_matrix["dense-24"]
    assert gst_bytes < edge_bytes


# ----------------------------------------------------------------------
# GST over the TCP runtime: stabilize frames ride the heartbeats
# ----------------------------------------------------------------------
def test_gst_on_tcp_heartbeat_piggyback(tmp_path):
    from repro.tcp.runtime import TcpCluster, TcpConfig

    placements = {"a": ["x", "y"], "b": ["y", "z"], "c": ["z", "x"]}

    async def scenario():
        config = TcpConfig(policy="gst", heartbeat_interval=0.05)
        async with TcpCluster(
            placements, str(tmp_path), config=config
        ) as cluster:
            await cluster.replica("a").write("x", 1)
            await cluster.replica("b").write("z", 2)
            await cluster.replica("a").write("y", 3)
            await cluster.settle(timeout=20)
            await cluster.settle_visibility(timeout=20)
            assert cluster.visible_stores() == {
                "a": {"x": 1, "y": 3},
                "b": {"y": 3, "z": 2},
                "c": {"x": 1, "z": 2},
            }
            assert all(
                s.core.visible_cut > 0 for s in cluster.servers.values()
            )

    asyncio.run(scenario())


def test_gst_on_tcp_survives_crash_restart(tmp_path):
    from repro.tcp.runtime import TcpCluster, TcpConfig

    placements = {"a": ["x", "y"], "b": ["y", "z"], "c": ["z", "x"]}

    async def scenario():
        config = TcpConfig(policy="gst", heartbeat_interval=0.05)
        async with TcpCluster(
            placements, str(tmp_path), config=config
        ) as cluster:
            await cluster.replica("a").write("x", 1)
            await cluster.replica("b").write("y", 2)
            await cluster.settle(timeout=20)
            cluster.kill("b")
            await cluster.replica("a").write("y", 3)
            await cluster.replica("c").write("z", 4)
            rb2 = await cluster.restart("b")
            await cluster.settle(timeout=30)
            await cluster.settle_visibility(timeout=30)
            assert cluster.visible_stores()["b"] == {"y": 3, "z": 4}
            assert rb2.core.unstable_count == 0

    asyncio.run(scenario())


def test_tcp_rejects_unknown_policy(tmp_path):
    from repro.errors import ConfigurationError
    from repro.tcp.runtime import TcpCluster, TcpConfig

    with pytest.raises(ConfigurationError):
        TcpCluster(
            {"a": ["x"], "b": ["x"]},
            str(tmp_path),
            config=TcpConfig(policy="hlc"),
        )
