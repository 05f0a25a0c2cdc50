"""The two real-socket workloads: ``tcp-steady`` and ``tcp-crash``.

One process, one event loop: an in-process ``TcpCluster`` (ring of 8,
constructor defaults, WAL files under ``bench/out``) serves two client
connections that share the loop with it.  Latency is therefore processor
time plus event-loop queueing on loopback -- not a network.

The open-loop phase plays a seeded Poisson schedule dealt onto the two
connections' FIFO queues; every operation is timed from the instant it
was *due*, so a stall charges the operations queued behind it.  The
phase is cut into windows, percentiles are taken per window and the
median window is reported: a noisy interval spoils a window, not the run
(the all-sample p99 is a layer metric).  ``tcp-steady`` then saturates
the cluster with pipelined writes in bursts, each followed by
``settle()``, and reports the median burst.  ``tcp-crash`` kills and
restarts one replica three times while the schedule keeps running.

Every run ends with the merged-WAL audit.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import resource
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.checker import check_history
from repro.core.share_graph import ShareGraph
from repro.errors import RetryExhaustedError
from repro.harness.chaos import store_divergence
from repro.harness.process_chaos import merge_wal_histories
from repro.tcp import ClusterClient, TcpCluster, TcpConfig, read_wal
from repro.wire import timestamp_wire_bytes

from . import gen, layers
from .stats import median, percentile
from .trace import Tracer

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

CONNECTIONS = 2
PIPELINE_WINDOW = 16
BATCH = 64  # writes per pipelined call
SETUPS = 5  # clusters built per run; setup_s is their median
VICTIM = "r03"
CYCLES = 3  # kill/restart cycles of a tcp-crash run
#: Kill and restart instants within each cycle.  At --seconds 20 a
#: cycle is 6.67 s and the outage runs 3.0-4.0 s into it, so outage plus
#: recovery touches 2 of every 6-7 one-second windows: the median
#: window stays a healthy one by a wide margin.
KILL_AT, RESTART_AT = 0.45, 0.60
#: Share of the open-loop phase a traced run plays with the recording
#: switched off, as the base for ``bench.trace_overhead_ratio``.
SILENT_SHARE = 0.1


@dataclass(frozen=True)
class TcpSpec:
    write_rate: float  # open loop, per second
    read_rate: float
    open_share: float  # of --seconds; the rest saturates
    crash: bool
    client: Dict[str, float]


SPECS = {
    "tcp-steady": TcpSpec(300.0, 30.0, 0.65, False, {}),
    "tcp-crash": TcpSpec(
        300.0, 0.0, 1.0, True,
        {"op_timeout": 1.0, "retry_delay": 0.02},
    ),
}


def inputs(spec: TcpSpec, seed: int, seconds: float):
    rng = random.Random(seed)
    placements = gen.ring_placements()
    open_s = seconds * spec.open_share
    ops: List[Any] = list(
        gen.write_schedule(rng, placements, spec.write_rate, duration=open_s)
    )
    if spec.read_rate:
        ops += gen.read_schedule(rng, placements, spec.read_rate, open_s)
        ops.sort(key=lambda op: op.due)
    return placements, ops, open_s


async def _sleep_until(loop: asyncio.AbstractEventLoop, when: float) -> None:
    delay = when - loop.time()
    if delay > 0:
        await asyncio.sleep(delay)


async def _start_cluster(placed: Dict[str, set], wal_dir: str):
    """Placements -> servers listening and every link connected."""
    start = time.perf_counter()
    cluster = TcpCluster(placed, wal_dir, config=TcpConfig())
    await cluster.__aenter__()
    while not all(
        link.connected
        for server in cluster.servers.values()
        for link in server.links.values()
    ):
        await asyncio.sleep(0.0005)
    return cluster, time.perf_counter() - start


def _window_medians(
    samples: List[Tuple[float, float]], window: float, windows: int
) -> Dict[float, float]:
    """Median over full windows of each window's p50/p95 (seconds)."""
    buckets: List[List[float]] = [[] for _ in range(windows)]
    for at, latency in samples:
        index = int(at // window)
        if index < windows:
            buckets[index].append(latency)
    out = {}
    for fraction in (0.50, 0.95):
        per_window = [
            percentile(sorted(bucket), fraction) for bucket in buckets if bucket
        ]
        out[fraction] = median(per_window) if per_window else 0.0
    return out


def _span_delta(after: Dict, before: Dict) -> Dict[str, Dict[str, int]]:
    return {
        name: {
            key: value - before.get(name, {}).get(key, 0)
            for key, value in entry.items()
        }
        for name, entry in after.items()
    }


def audit(placed: Dict[str, set], wal_dir: str) -> Tuple[List[str], int, int]:
    """Merged-WAL audit: (violations, events, WAL bytes)."""
    paths = {r: os.path.join(wal_dir, f"replica-{r}.wal") for r in sorted(placed)}
    entries = {r: list(read_wal(path)) for r, path in paths.items()}
    graph = ShareGraph(placed)
    history, values, view = merge_wal_histories(graph, entries)
    report = check_history(history, graph, require_liveness=True)
    violations = [str(v) for v in report.violations]
    violations += store_divergence(view, values)
    events = sum(len(e) for e in entries.values())
    return violations, events, sum(os.path.getsize(p) for p in paths.values())


async def _run(
    spec: TcpSpec, seed: int, seconds: float, tracer: Optional[Tracer]
) -> Dict[str, Any]:
    loop = asyncio.get_event_loop()
    placements, ops, open_s = inputs(spec, seed, seconds)
    placed = {r: set(x) for r, x in placements.items()}
    shared = gen.holders(placements)
    by_home = {
        r: [x for x in regs if x in shared] for r, regs in placements.items()
    }
    window = min(1.0, open_s / 4)
    windows = int(open_s // window)
    recorder = tracer or Tracer()  # toggled either way; records if installed
    recorder.enabled = False

    due_at: Dict[int, float] = {}
    waiting: Dict[int, int] = {}
    visible: List[Tuple[float, float]] = []  # (due offset, latency)
    metadata_bytes = 0

    def on_apply(server: Any, src: Any, update: Any) -> None:
        nonlocal metadata_bytes
        metadata_bytes += timestamp_wire_bytes(update.timestamp)
        value = update.value
        left = waiting.get(value)
        if left is None:
            return  # a retried write that executed twice across a kill
        if left > 1:
            waiting[value] = left - 1
            return
        del waiting[value]
        due = due_at.pop(value, None)
        if due is not None:
            visible.append((due - start, loop.time() - due))

    counts = {"attempted": 0, "failed": 0, "writes": 0}
    write_samples: List[Tuple[float, float]] = []  # (due offset, latency)
    read_samples: List[Tuple[float, float]] = []
    acked_at: List[float] = []  # completion offsets of open-loop writes
    failover_latency: List[float] = []
    late: List[float] = []
    clients: List[ClusterClient] = []

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="wal-") as scratch:
        # Throw-away clusters: the first is the untimed warm-up (it also
        # takes a few writes), the rest are set-up samples.
        setups: List[float] = []
        for k in range(SETUPS):
            cluster, took = await _start_cluster(placed, f"{scratch}/setup-{k}")
            if k == 0:
                warm = ClusterClient("warm", cluster.addresses)
                for op in [o for o in ops if isinstance(o, gen.Write)][:50]:
                    await warm.write(op.register, op.value, op.targets)
                await warm.close()
                await cluster.settle()
            else:
                setups.append(took)
            await cluster.stop()

        wal_dir = f"{scratch}/main"
        recorder.enabled = True
        cluster, took = await _start_cluster(placed, wal_dir)
        setups.append(took)
        incarnations = list(cluster.servers.values())
        for server in incarnations:
            server.on_apply = on_apply
        after_setup = recorder.summary()
        recorder.enabled = False
        mark = {"cpu": 0.0, "writes": 0}

        def start_recording() -> None:
            mark["cpu"] = time.process_time()
            mark["writes"] = counts["writes"]
            recorder.enabled = True

        async def connection(k: int, queue: List[Any], start: float) -> None:
            client = ClusterClient(f"open-{k}", cluster.addresses, **spec.client)
            clients.append(client)
            for op in queue:
                due = start + op.due
                await _sleep_until(loop, due)
                late.append(max(0.0, loop.time() - due))
                counts["attempted"] += 1
                try:
                    if isinstance(op, gen.Write):
                        due_at[op.value] = due
                        waiting[op.value] = len(op.targets) - 1
                        result = await client.write(
                            op.register, op.value, op.targets
                        )
                        now = loop.time()
                        counts["writes"] += 1
                        write_samples.append((op.due, now - due))
                        acked_at.append(now - start)
                        if result.attempts > 1:
                            failover_latency.append(now - due)
                    else:
                        await client.read(op.register, op.targets)
                        read_samples.append((op.due, loop.time() - due))
                except RetryExhaustedError:
                    counts["failed"] += 1
                    if isinstance(op, gen.Write):
                        waiting.pop(op.value, None)
                        due_at.pop(op.value, None)

        recoveries: List[float] = []
        replayed = 0

        async def faults(start: float) -> None:
            nonlocal replayed
            cycle = open_s / CYCLES
            for c in range(CYCLES):
                await _sleep_until(loop, start + (c + KILL_AT) * cycle)
                cluster.kill(VICTIM)
                await _sleep_until(loop, start + (c + RESTART_AT) * cycle)
                owed = {
                    peer: cluster.servers[peer].core.timestamp.get(
                        (peer, VICTIM)
                    ) or 0
                    for peer in cluster.graph.neighbors(VICTIM)
                }
                began = loop.time()
                server = await cluster.restart(VICTIM)
                server.on_apply = on_apply
                incarnations.append(server)
                while any(
                    server.recv_cursor(peer) < count
                    for peer, count in owed.items()
                ):
                    await asyncio.sleep(0.002)
                recoveries.append(loop.time() - began)
                replayed += server.stats.wal_replayed

        # ---- open loop -------------------------------------------------
        cpu0 = time.process_time()
        start = loop.time() + 0.05
        loop.call_at(start + open_s * SILENT_SHARE, start_recording)
        tasks = [
            connection(k, queue, start)
            for k, queue in enumerate(gen.deal(ops, CONNECTIONS))
        ]
        if spec.crash:
            tasks.append(faults(start))
        await asyncio.gather(*tasks)
        await cluster.settle()
        open_end = {"cpu": time.process_time(), "writes": counts["writes"]}

        # ---- saturation bursts (tcp-steady) ----------------------------
        bursts: List[float] = []
        sat_s = seconds - open_s
        if sat_s > 0:
            burst_s = min(1.0, sat_s / 4)
            homes = sorted(placed)
            # Per connection: its seeded stream, unique values, client.
            streams = [
                (
                    random.Random(f"{seed}:sat:{k}"),
                    itertools.count((k + 1) * 10**9),
                    clients[k],
                )
                for k in range(CONNECTIONS)
            ]

            async def saturate(k: int, deadline: float) -> int:
                rng, values, client = streams[k]
                done = 0
                while loop.time() < deadline:
                    home = rng.choice(homes)
                    batch = [
                        (rng.choice(by_home[home]), next(values))
                        for _ in range(BATCH)
                    ]
                    for _, value in batch:
                        waiting[value] = 1
                    counts["attempted"] += BATCH
                    try:
                        await client.write_pipelined(
                            batch, [home], window=PIPELINE_WINDOW
                        )
                        done += BATCH
                    except RetryExhaustedError:
                        counts["failed"] += BATCH
                        for _, value in batch:
                            waiting.pop(value, None)
                return done

            sat_end = loop.time() + sat_s
            while loop.time() + burst_s <= sat_end:
                began = loop.time()
                done = await asyncio.gather(
                    *(saturate(k, began + burst_s) for k in range(CONNECTIONS))
                )
                await cluster.settle()
                counts["writes"] += sum(done)
                bursts.append(sum(done) / (loop.time() - began))
        cpu1 = time.process_time()
        for client in clients:
            await client.close()

        recorder.enabled = False
        stats = [s.stats for s in incarnations]
        engine = [s.core.metrics for s in incarnations]
        live = list(cluster.servers.values())
        counters = [s.core.policy.counters() for s in live]
        flushes = sum(s.wal.flushes for s in incarnations)
        await cluster.stop()
        # Before the audit: its history of n updates holds n bitmasks of
        # n bits, which would make the peak a function of how many
        # writes the saturation phase got through.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        audit0 = time.perf_counter()
        violations, events, wal_bytes = audit(placed, wal_dir)
        audit_s = time.perf_counter() - audit0

    writes = max(counts["writes"], 1)
    correct = not violations and not waiting and counts["failed"] == 0
    writes_p = _window_medians(write_samples, window, windows)
    visible_p = _window_medians(visible, window, windows)
    if bursts:
        ops_per_s = median(bursts)
    else:
        per_window = [0] * windows
        for at in acked_at:
            if at < windows * window:
                per_window[int(at // window)] += 1
        ops_per_s = median(per_window) / window
    e2e = {
        "setup_s": median(setups),
        "write_ops_per_s": ops_per_s,
        "write_p50_ms": writes_p[0.50] * 1e3,
        "write_p95_ms": writes_p[0.95] * 1e3,
        "visibility_p50_ms": visible_p[0.50] * 1e3,
        "visibility_p95_ms": visible_p[0.95] * 1e3,
        "metadata_bytes_per_write": metadata_bytes / writes,
        "peak_rss_mb": peak_rss_mb,
    }

    per_layer: Dict[str, float] = {}
    if tracer is not None:
        recorded = max(counts["writes"] - mark["writes"], 1)
        silent = max(mark["writes"], 1)
        summary = tracer.summary()
        on_path = _span_delta(summary, after_setup)
        per_layer = layers.span_metrics(on_path, recorded)
        restarts = max(len(recoveries), 1)
        total_s = layers.total_s
        cpu_us = (cpu1 - mark["cpu"]) * 1e6 / recorded
        applied = max(sum(m.applied_remote for m in engine), 1)
        all_writes = sorted(latency for _, latency in write_samples)
        per_layer.update(
            {
                "core.timestamp_graph.build_s": total_s(
                    after_setup, "core.timestamp_graph.build"
                ),
                "core.timestamp.compile_s": total_s(
                    after_setup, "core.timestamp.compile"
                ),
                "core.timestamp_graph.edges_mean": sum(counters) / len(counters),
                # Calls of the recorded stretch over its share of applies.
                "core.timestamp.ready_calls_per_apply": (
                    layers.calls(on_path, "core.timestamp.ready")
                    / (applied * recorded / writes)
                ),
                "core.engine.applies_per_write": applied / writes,
                "core.engine.pending_high_water": max(
                    m.pending_high_water for m in engine
                ),
                "core.engine.stale_discarded": sum(
                    m.stale_discarded for m in engine
                ),
                "core.engine.updates_shed": sum(m.updates_shed for m in engine),
                "tcp.wal.flushes_per_write": flushes / writes,
                "tcp.wal.bytes_per_write": wal_bytes / writes,
                "tcp.wal.recover_s": (
                    total_s(summary, "tcp.wal.recover_wal")
                    - total_s(after_setup, "tcp.wal.recover_wal")
                ) / restarts,
                "tcp.wal.replayed_records": replayed / restarts,
                "tcp.runtime.start_s": (
                    total_s(summary, "tcp.runtime.start")
                    - total_s(after_setup, "tcp.runtime.start")
                ) / restarts,
                "tcp.runtime.resyncs": sum(s.resyncs_requested for s in stats),
                "tcp.runtime.outbox_high_water": max(
                    s.outbox_high_water for s in stats
                ),
                "tcp.runtime.recovery_s": (
                    median(recoveries) if recoveries else 0.0
                ),
                "tcp.client.write_p99_ms": percentile(all_writes, 0.99) * 1e3,
                "tcp.client.read_p50_ms": (
                    _window_medians(read_samples, window, windows)[0.50] * 1e3
                ),
                "tcp.client.retries": sum(c.stats.retries for c in clients),
                "tcp.client.failovers": sum(c.stats.failovers for c in clients),
                "tcp.client.failover_p50_ms": (
                    median(failover_latency) * 1e3 if failover_latency else 0.0
                ),
                "checker.audit_s": audit_s,
                "checker.us_per_event": audit_s * 1e6 / max(events, 1),
                "bench.cpu_us_per_write": cpu_us,
                "bench.unattributed_us_per_write": (
                    cpu_us - layers.attributed_us(on_path) / recorded
                ),
                # Open loop only, like with like: the recorded stretch
                # against the silent one.
                "bench.trace_overhead_ratio": (
                    (open_end["cpu"] - mark["cpu"])
                    / max(open_end["writes"] - mark["writes"], 1)
                    / ((mark["cpu"] - cpu0) / silent)
                ),
                "bench.gen_late_p99_ms": percentile(sorted(late), 0.99) * 1e3,
            }
        )

    return {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "e2e": e2e,
        "per_layer": per_layer,
        "violations": violations[:5],
    }


def run(
    name: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """One run of a TCP workload."""
    return asyncio.run(_run(SPECS[name], seed, seconds, tracer))
