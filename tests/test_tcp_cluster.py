"""Process-level tests: subprocess replicas, SIGKILL, WAL-merged audit.

These spawn real operating-system processes (``python -m repro cluster
serve``) talking over loopback TCP, so they are slower than the
in-process suite in ``test_tcp.py`` -- each asserts something only a
process boundary can: SIGKILL semantics, recovery from a WAL written by
a *different* process incarnation, and the merged-WAL audit pipeline
that the chaos harness and CI smoke job rely on.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import re

import pytest

from repro.core.share_graph import ShareGraph
from repro.checker import check_history
from repro.errors import ConfigurationError, ProtocolError
from repro.harness.chaos import store_divergence
from repro.harness.process_chaos import (
    audit_cluster,
    merge_wal_histories,
    ring_placements,
)
from repro.harness.soak import SoakSpec, run_load, run_soak
from repro.harness.timeline import burst_timeline
from repro.tcp.cluster import (
    ProcessCluster,
    read_cluster_config,
    serve_replica,
    write_cluster_config,
)
from repro.tcp.runtime import TcpCluster, TcpConfig
from repro.tcp.wal import read_wal


def drive(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# WAL merge audit (in-process: cheap, deterministic)
# ----------------------------------------------------------------------
class TestWalMergeAudit:
    PLACEMENTS = {"a": {"x", "y"}, "b": {"x", "z"}, "c": {"y", "z"}}

    def _converged_wals(self, wal_dir):
        async def scenario():
            async with TcpCluster(self.PLACEMENTS, wal_dir) as cluster:
                await cluster.replica("a").write("x", "vx")
                await cluster.replica("b").write("x", "vx2")
                await cluster.replica("c").write("y", "vy")
                await cluster.settle(timeout=15)

        drive(scenario())
        return {
            name: list(read_wal(f"{wal_dir}/replica-{name}.wal"))
            for name in self.PLACEMENTS
        }

    def test_merged_history_passes_checker_and_store_audit(self, tmp_path):
        entries = self._converged_wals(str(tmp_path))
        graph = ShareGraph(self.PLACEMENTS)
        history, values, view = merge_wal_histories(graph, entries)
        result = check_history(history, graph, require_liveness=True)
        assert result.ok, result.violations
        assert store_divergence(view, values) == []
        # Three issues, each applied at issuer + exactly one sharer.
        assert len(history.updates) == 3

    def test_apply_without_durable_issue_is_loud(self, tmp_path):
        entries = self._converged_wals(str(tmp_path))
        graph = ShareGraph(self.PLACEMENTS)
        # Drop a's issues: b still durably applied a's update, which the
        # merge must refuse to paper over.
        entries["a"] = [e for e in entries["a"] if e.kind != "issue"]
        with pytest.raises(ProtocolError, match="never durably issued"):
            merge_wal_histories(graph, entries)

    def test_store_divergence_detects_forged_store(self, tmp_path):
        entries = self._converged_wals(str(tmp_path))
        graph = ShareGraph(self.PLACEMENTS)
        _, values, view = merge_wal_histories(graph, entries)
        view.replicas["a"].store["x"] = "not-what-anyone-wrote"
        assert store_divergence(view, values) != []


def test_ring_placements_shape():
    placements = ring_placements(5)
    assert len(placements) == 5
    graph = ShareGraph({r: set(x) for r, x in placements.items()})
    for register in graph.registers:
        assert len(graph.replicas_storing(register)) == 2
    with pytest.raises(ProtocolError):
        ring_placements(1)


# ----------------------------------------------------------------------
# Config file: written by one version, read by another
# ----------------------------------------------------------------------
#: The ``config`` section exactly as the last commit that had
#: ``TcpConfig.vectorized`` wrote it (``write_cluster_config`` defaults).
CONFIG_WITH_VECTORIZED = {
    "backoff_base": 0.05,
    "backoff_cap": 2.0,
    "backoff_factor": 2.0,
    "backoff_jitter": 0.5,
    "batch_max": 64,
    "batch_window": 0.0,
    "drain_timeout": 5.0,
    "gap_threshold": 256,
    "heartbeat_interval": 0.25,
    "heartbeat_timeout": 1.5,
    "hello_timeout": 10.0,
    "pending_cap": 512,
    "policy": "edge",
    "shed_retry_after": 0.1,
    "shed_threshold": None,
    "vectorized": False,
}

#: The ``config`` section exactly as the last commit that had
#: ``TcpConfig.batch_window`` and ``batch_max`` wrote it.
CONFIG_WITH_BATCH_WINDOW = {
    key: value
    for key, value in CONFIG_WITH_VECTORIZED.items()
    if key != "vectorized"
}


def test_cluster_config_with_a_removed_setting_is_named_not_a_typeerror(tmp_path):
    path = str(tmp_path / "cluster.json")
    placements = {"a": ["x"], "b": ["x"]}
    ports = {"a": 7001, "b": 7002}
    write_cluster_config(path, placements, ports, str(tmp_path))
    doc = read_cluster_config(path)
    assert doc["config"] == dataclasses.asdict(TcpConfig())
    # The only keys the old files have and this version does not.
    assert set(CONFIG_WITH_VECTORIZED) - set(doc["config"]) == {
        "batch_max",
        "batch_window",
        "vectorized",
    }
    assert set(doc["config"]) <= set(CONFIG_WITH_BATCH_WINDOW)
    for old, removed in (
        (CONFIG_WITH_VECTORIZED, ["batch_max", "batch_window", "vectorized"]),
        (CONFIG_WITH_BATCH_WINDOW, ["batch_max", "batch_window"]),
    ):
        doc["config"] = old
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        named = re.escape(f"unknown settings {removed}")
        with pytest.raises(ConfigurationError, match=named):
            read_cluster_config(path)
        with pytest.raises(ConfigurationError, match=named):
            drive(serve_replica(path, "a"))


# ----------------------------------------------------------------------
# Real subprocesses
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestProcessCluster:
    def test_load_sigkill_recovery_and_audit(self, tmp_path):
        """Boot 3 replica processes, run a burst, SIGKILL one mid-life,
        restart it, converge, and audit the WALs of all incarnations."""

        async def scenario():
            placements = ring_placements(3)
            cluster = ProcessCluster(placements, str(tmp_path))
            graph = ShareGraph({r: set(x) for r, x in placements.items()})
            try:
                cluster.start_all()
                await cluster.wait_ready()

                report = await run_load(
                    cluster.addresses, placements, sessions=2,
                    writes_per_session=10, seed=3,
                )
                assert report.ops == 20

                cluster.sigkill("r1")
                assert not cluster.alive("r1")
                cluster.spawn("r1")  # same WAL, same port
                await cluster.wait_ready()

                report = await run_load(
                    cluster.addresses, placements, sessions=2,
                    writes_per_session=10, seed=4,
                )
                assert report.ops == 20

                await cluster.settle(timeout=30)
                await cluster.shutdown_all()
            finally:
                cluster.terminate_all()

            violations, events = audit_cluster(cluster, graph)
            assert violations == []
            assert events > 0

        drive(scenario())

    @pytest.mark.parametrize(
        "label,config",
        [
            # One write in flight per session: a commit holds one op.
            ("flush-per-append", dict(pipeline_window=1)),
            # Pipelined sessions: a commit buffers several staged ops.
            ("buffered", dict(pipeline_window=8)),
        ],
    )
    def test_sigkill_mid_window_replays_cleanly(
        self, tmp_path, label, config
    ):
        """SIGKILL while writes are in flight, between commits.

        Every WAL record waits in memory for its commit's flush, so the
        kill loses whatever was staged and can tear the final line of a
        flush in progress; recovery must drop a torn line as
        never-happened -- no quarantine, no duplicate enqueue after the
        cursor-replay HELLO, and a merged audit with zero violations.
        Run with one op per commit and with a pipelined window that
        stages several ops into each commit."""

        async def scenario():
            placements = ring_placements(3)
            graph = ShareGraph({r: set(x) for r, x in placements.items()})
            cluster = ProcessCluster(placements, str(tmp_path))
            try:
                cluster.start_all()
                await cluster.wait_ready()

                load = asyncio.ensure_future(
                    run_load(
                        cluster.addresses, placements, sessions=2,
                        writes_per_session=40, seed=9, **config,
                    )
                )
                await asyncio.sleep(0.25)  # mid-burst, mid-window
                cluster.sigkill("r1")
                cluster.spawn("r1")  # same WAL, same port
                report = await load
                # Every op either completed or exhausted its budget
                # loudly -- nothing vanished.
                assert report.ops + report.errors == 80
                assert report.ops > 0

                await cluster.wait_ready()
                await cluster.settle(timeout=30)
                statuses = await cluster.statuses()
                # A torn tail is the expected crash artifact, never
                # corruption: recovery must not quarantine anything.
                metrics = statuses["r1"]["metrics"]
                assert metrics["wal_quarantines"] == 0
                assert metrics["wal_corrupt_records"] == 0
                await cluster.shutdown_all()
            finally:
                cluster.terminate_all()

            violations, events = audit_cluster(cluster, graph)
            assert violations == [], (label, violations)
            assert events > 0

        drive(scenario())

    def test_full_process_chaos_trial(self, tmp_path):
        """The acceptance scenario: a 5-replica cluster under load with
        >= 1 SIGKILL/restart and >= 1 forced connection reset passes the
        causal-consistency checker and the store-divergence audit."""
        spec = SoakSpec(
            scenario="burst",
            replicas=5,
            sessions=3,
            writes=15,
            seed=11,
            timeline=burst_timeline(
                ring_placements(5), kills=1, resets=1, seed=11
            ),
        )
        report = drive(run_soak(spec, str(tmp_path)))
        assert report.ok, report.violations
        assert report.kills >= 1
        assert report.resets >= 1
        assert report.load.ops == 45
        assert report.load.p99 >= report.load.p50 > 0
        assert report.wal_events > 0
        # `cluster chaos --report` keeps every key it wrote before.
        assert {
            "ok", "violations", "ops", "duration", "throughput", "p50",
            "p95", "p99", "kills", "resets", "retries", "failovers",
            "connects", "resyncs", "wal_events",
        } <= set(report.to_json())
