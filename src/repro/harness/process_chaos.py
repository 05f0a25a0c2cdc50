"""Process-level chaos for the TCP cluster runtime.

The simulated chaos campaign (:mod:`repro.harness.chaos`) kills model
replicas inside one Python process; this harness kills *operating
system processes* -- SIGKILL and restart of replica servers, forced TCP
connection resets mid-transfer -- while concurrent client sessions keep
writing through retry/failover, and then asserts the exact same
properties:

* **safety** -- the merged per-process write-ahead logs replay through
  the real consistency checker (:func:`repro.checker.check_history`);
  the audit trusts only what each process durably logged, never its
  in-memory claims;
* **liveness** -- after the fault horizon the cluster settles: every
  replica's delivery cursor reaches every sender's counter (cursor
  equality is store/timestamp convergence);
* **store convergence** -- :func:`repro.harness.chaos.store_divergence`
  runs against a view reconstructed from the WALs: every replica holds
  the value of a maximal write for each register and no value debt is
  left behind.

The trial also measures what the paper's evaluation sections report for
real deployments: sustained throughput and p50/p95/p99 operation
latency under failures.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.causality import History
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import all_timestamp_graphs
from repro.errors import ProtocolError, RetryExhaustedError
from repro.harness.chaos import store_divergence
from repro.tcp.client import ClusterClient, percentile
from repro.tcp.cluster import ProcessCluster
from repro.tcp.runtime import TcpConfig
from repro.tcp.wal import WalEntry, read_wal
from repro.types import ReplicaId, UpdateId
from repro.wire.codec import canonical_edge_order, decode_update


# ----------------------------------------------------------------------
# Placements
# ----------------------------------------------------------------------
def ring_placements(n: int) -> Dict[str, List[str]]:
    """``n`` replicas in a sharing ring: replica ``ri`` stores the two
    registers it shares with its neighbours.  Every register lives on
    exactly two replicas -- genuinely partial replication with a
    connected share graph at any ``n >= 2``."""
    if n < 2:
        raise ProtocolError("a ring needs at least two replicas")
    if n == 2:
        return {"r0": ["x0"], "r1": ["x0"]}
    return {
        f"r{i}": sorted({f"x{(i - 1) % n}", f"x{i}"}) for i in range(n)
    }


# ----------------------------------------------------------------------
# WAL merge: the durable ground truth behind the audit
# ----------------------------------------------------------------------
@dataclass
class _ReplicaView:
    store: Dict[Any, Any]
    value_debt: Dict[Any, Any] = field(default_factory=dict)
    crashed: bool = False


@dataclass
class ClusterView:
    """Just enough of a system for :func:`store_divergence`."""

    history: History
    graph: ShareGraph
    replicas: Dict[ReplicaId, _ReplicaView]


def merge_wal_histories(
    graph: ShareGraph,
    entries_by_replica: Mapping[str, List[WalEntry]],
) -> Tuple[History, Dict[UpdateId, Any], ClusterView]:
    """Merge per-replica WALs into one :class:`History` plus final stores.

    Each replica's log is consumed strictly in its own order (that order
    *is* the replica's execution order, which fixes both its causal
    pasts and its final store); logs are interleaved greedily so that an
    apply is only recorded once its update's issue has been.  Leftover
    events after the fixpoint mean a replica durably applied an update
    its issuer never durably issued -- a genuine violation, reported
    loudly rather than skipped.
    """
    graphs = all_timestamp_graphs(graph)
    orders = {
        rid: canonical_edge_order(graphs[rid].edges) for rid in graph.replicas
    }
    by_name = {str(r): r for r in graph.replicas}
    registers = {str(x): x for x in graph.registers}

    history = History()
    values: Dict[UpdateId, Any] = {}
    stores: Dict[ReplicaId, Dict[Any, Any]] = {
        rid: {} for rid in graph.replicas
    }
    streams: Dict[ReplicaId, List[WalEntry]] = {}
    cursors: Dict[ReplicaId, int] = {}
    issue_seq: Dict[ReplicaId, int] = {}
    for name, entries in entries_by_replica.items():
        rid = by_name.get(name, name)
        streams[rid] = list(entries)
        cursors[rid] = 0
        issue_seq[rid] = 0

    progress = True
    while progress:
        progress = False
        for rid in sorted(streams, key=str):
            stream = streams[rid]
            while cursors[rid] < len(stream):
                entry = stream[cursors[rid]]
                if entry.kind == "issue":
                    issue_seq[rid] += 1
                    uid = UpdateId(rid, issue_seq[rid])
                    register = registers.get(entry.register, entry.register)
                    history.record_issue(rid, uid, register, entry.time)
                    values[uid] = entry.value
                    stores[rid][register] = entry.value
                else:
                    src = by_name.get(entry.src, entry.src)
                    update = decode_update(
                        entry.update_bytes, src, orders[src]
                    )
                    if update.uid not in history.updates:
                        break  # issue not merged yet; revisit next round
                    register = registers.get(
                        update.register, update.register
                    )
                    history.record_apply(rid, update.uid, entry.time)
                    if not update.metadata_only:
                        stores[rid][register] = update.value
                cursors[rid] += 1
                progress = True

    stuck = {
        str(rid): len(stream) - cursors[rid]
        for rid, stream in streams.items()
        if cursors[rid] < len(stream)
    }
    if stuck:
        raise ProtocolError(
            "WAL merge stuck -- applies of updates never durably issued: "
            f"{stuck}"
        )
    view = ClusterView(
        history=history,
        graph=graph,
        replicas={
            rid: _ReplicaView(store=stores.get(rid, {}))
            for rid in graph.replicas
        },
    )
    return history, values, view


# ----------------------------------------------------------------------
# Trial specification and report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessChaosSpec:
    """One process-chaos trial: load + a schedule of OS-level faults."""

    replicas: int = 5
    sessions: int = 4
    writes_per_session: int = 40
    seed: int = 0
    kills: int = 1  # SIGKILL + restart cycles, spread across the run
    resets: int = 1  # forced connection resets mid-transfer
    kill_cooldown: float = 0.6  # let the victim recover before the next fault
    settle_timeout: float = 45.0
    config: TcpConfig = TcpConfig()


@dataclass
class ProcessChaosReport:
    ok: bool
    violations: List[str]
    ops: int
    duration: float
    throughput: float
    p50: float
    p95: float
    p99: float
    kills: int
    resets: int
    retries: int
    failovers: int
    connects: int
    resyncs: int
    wal_events: int

    def to_json(self) -> Dict[str, Any]:
        return dict(self.__dict__, violations=list(self.violations))


async def _load_session(
    name: str,
    addresses: Dict[str, Tuple[str, int]],
    graph: ShareGraph,
    writes: int,
    seed: int,
    results: List[float],
    errors: Optional[List[str]] = None,
    pipeline_window: int = 1,
) -> ClusterClient:
    """One write session; ``pipeline_window > 1`` keeps that many ops in
    flight per register burst via :meth:`ClusterClient.write_pipelined`.

    A session that exhausts its retry budget on one op records the error
    (when ``errors`` is given) and moves on instead of aborting the whole
    burst -- a single unlucky op must dent the error-rate section of the
    report, not vaporize every other session's measurements.
    """
    rng = random.Random(f"{seed}:{name}")
    registers = sorted(graph.registers, key=str)
    client = ClusterClient(
        name,
        addresses,
        op_timeout=1.0,
        max_attempts=40,
        retry_delay=0.05,
    )
    i = 0
    while i < writes:
        register = rng.choice(registers)
        targets = sorted(
            (str(r) for r in graph.replicas_storing(register)),
            key=lambda r: rng.random(),
        )
        chunk = 1
        if pipeline_window > 1:
            chunk = min(writes - i, pipeline_window * 2)
        try:
            if chunk == 1:
                result = await client.write(register, f"{name}:{i}", targets)
                results.append(result.latency)
            else:
                ops = [
                    (register, f"{name}:{i + j}") for j in range(chunk)
                ]
                for result in await client.write_pipelined(
                    ops, targets, window=pipeline_window
                ):
                    results.append(result.latency)
        except RetryExhaustedError as exc:
            if errors is None:
                raise
            errors.append(f"{name}: {exc}")
        i += chunk
    await client.close()
    return client


@dataclass
class LoadReport:
    """Throughput/latency summary of one load burst."""

    ops: int
    duration: float
    throughput: float
    p50: float
    p95: float
    p99: float
    retries: int
    failovers: int
    #: Connections the sessions dialled (one per home used, plus one
    #: per connection lost to a fault).
    connects: int
    #: Error/retry-rate section (comparable with the soak's samples):
    #: ops that exhausted their retry budget, attempts shed by overloaded
    #: replicas, and per-op rates.
    errors: int = 0
    sheds: int = 0
    retry_rate: float = 0.0
    error_rate: float = 0.0
    #: Effective batching/pipelining configuration the burst ran with.
    config: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return dict(self.__dict__, config=dict(self.config))


async def run_load(
    addresses: Dict[str, Tuple[str, int]],
    placements: Mapping[str, Any],
    sessions: int = 4,
    writes_per_session: int = 50,
    seed: int = 0,
    pipeline_window: int = 1,
    tcp_config: Optional[Mapping[str, Any]] = None,
) -> LoadReport:
    """Drive concurrent write sessions against a running cluster.

    Reuses the retry/failover/dedup client sessions, so the burst keeps
    making progress through restarts and resets happening underneath.
    ``tcp_config`` (the cluster's effective ``TcpConfig`` as a mapping,
    e.g. the ``config`` section of ``cluster.json``) is echoed into the
    report so batching/pipelining settings travel with the numbers.
    """
    graph = ShareGraph({r: set(x) for r, x in placements.items()})
    latencies: List[float] = []
    errors: List[str] = []
    started = time.monotonic()
    clients = await asyncio.gather(
        *(
            _load_session(
                f"s{i}",
                addresses,
                graph,
                writes_per_session,
                seed,
                latencies,
                errors=errors,
                pipeline_window=pipeline_window,
            )
            for i in range(sessions)
        )
    )
    duration = time.monotonic() - started
    ops = len(latencies)
    retries = sum(c.stats.retries for c in clients)
    tcp_cfg = dict(tcp_config or {})
    return LoadReport(
        ops=ops,
        duration=duration,
        throughput=ops / duration if duration > 0 else 0.0,
        p50=percentile(latencies, 0.50),
        p95=percentile(latencies, 0.95),
        p99=percentile(latencies, 0.99),
        retries=retries,
        failovers=sum(c.stats.failovers for c in clients),
        connects=sum(c.stats.connects for c in clients),
        errors=len(errors),
        sheds=sum(c.stats.sheds for c in clients),
        retry_rate=retries / ops if ops else 0.0,
        error_rate=len(errors) / (ops + len(errors)) if (ops or errors) else 0.0,
        config={
            "sessions": sessions,
            "writes_per_session": writes_per_session,
            "pipeline_window": pipeline_window,
            "batch_window": tcp_cfg.get("batch_window", 0.0),
            "batch_max": tcp_cfg.get("batch_max"),
            "shed_threshold": tcp_cfg.get("shed_threshold"),
        },
    )


async def _fault_injector(
    cluster: ProcessCluster,
    graph: ShareGraph,
    spec: ProcessChaosSpec,
    log: List[str],
) -> Tuple[int, int]:
    rng = random.Random(f"{spec.seed}:faults")
    admin = ClusterClient("fault-admin", cluster.addresses, op_timeout=1.0)
    replicas = sorted(cluster.placements)
    kills = resets = 0
    # The whole schedule executes even if the load burst finishes first:
    # a reset during anti-entropy or settling is still a real fault, and
    # the trial's contract is "at least N of each kind happened".
    planned = ["kill"] * spec.kills + ["reset"] * spec.resets
    rng.shuffle(planned)
    for kind in planned:
        await asyncio.sleep(0.1 + rng.random() * 0.2)
        victim = rng.choice(replicas)
        if kind == "kill":
            log.append(f"SIGKILL {victim}")
            cluster.restart(victim)
            kills += 1
            await asyncio.sleep(spec.kill_cooldown)
        else:
            peers = sorted(
                str(p) for p in graph.neighbors(victim)
            )
            if not peers:
                continue
            peer = rng.choice(peers)
            log.append(f"reset {victim} -> {peer}")
            try:
                await admin.admin(
                    victim, {"op": "reset_link", "peer": peer}
                )
                resets += 1
            except Exception as exc:
                log.append(f"reset failed: {type(exc).__name__}")
    await admin.close()
    return kills, resets


def audit_cluster(
    cluster: ProcessCluster, graph: ShareGraph
) -> Tuple[List[str], int]:
    """Merged-WAL safety/liveness/store audit; returns (violations, events)."""
    entries = {
        replica: list(read_wal(cluster.wal_path(replica)))
        for replica in sorted(cluster.placements)
    }
    total = sum(len(e) for e in entries.values())
    violations: List[str] = []
    try:
        history, values, view = merge_wal_histories(graph, entries)
    except ProtocolError as exc:
        return [str(exc)], total
    from repro.checker import check_history

    result = check_history(history, graph, require_liveness=True)
    violations.extend(str(v) for v in result.violations)
    violations.extend(store_divergence(view, values))
    return violations, total


async def run_process_chaos_trial(
    spec: ProcessChaosSpec, workdir: str
) -> ProcessChaosReport:
    placements = ring_placements(spec.replicas)
    graph = ShareGraph({r: set(x) for r, x in placements.items()})
    cluster = ProcessCluster(
        placements, workdir, config=spec.config
    )
    latencies: List[float] = []
    fault_log: List[str] = []
    kills = resets = retries = failovers = connects = 0
    started = time.monotonic()
    try:
        cluster.start_all()
        await cluster.wait_ready()
        injector = asyncio.ensure_future(
            _fault_injector(cluster, graph, spec, fault_log)
        )
        sessions = await asyncio.gather(
            *(
                _load_session(
                    f"s{i}",
                    cluster.addresses,
                    graph,
                    spec.writes_per_session,
                    spec.seed,
                    latencies,
                )
                for i in range(spec.sessions)
            )
        )
        kills, resets = await injector
        retries = sum(s.stats.retries for s in sessions)
        failovers = sum(s.stats.failovers for s in sessions)
        connects = sum(s.stats.connects for s in sessions)
        statuses = await cluster.settle(timeout=spec.settle_timeout)
        resyncs = sum(
            s.get("metrics", {}).get("resyncs_served", 0)
            for s in statuses.values()
        )
        await cluster.shutdown_all()
    finally:
        cluster.terminate_all()
    duration = time.monotonic() - started
    violations, wal_events = audit_cluster(cluster, graph)
    ops = len(latencies)
    return ProcessChaosReport(
        ok=not violations,
        violations=violations,
        ops=ops,
        duration=duration,
        throughput=ops / duration if duration > 0 else 0.0,
        p50=percentile(latencies, 0.50),
        p95=percentile(latencies, 0.95),
        p99=percentile(latencies, 0.99),
        kills=kills,
        resets=resets,
        retries=retries,
        failovers=failovers,
        connects=connects,
        resyncs=resyncs,
        wal_events=wal_events,
    )


def write_report(report: ProcessChaosReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
