"""Protocol throughput benchmarks: ``python -m repro bench``.

Measures the hot simulation path (write -> serialize -> deliver -> ready
-> merge) on a fixed scenario matrix covering the topology shapes the
paper's metadata bounds distinguish: trees (no loops), rings (one loop),
cliques (full replication), and dense random placements (many overlapping
loops -- the stress case for the delivery engine).

Timings use :func:`time.process_time` (CPU time, immune to scheduler
noise) and report the best of ``repeats`` runs -- the standard defence
against one-off interference when benchmarking in shared environments.

Results serialize to a JSON document (``BENCH_protocol.json``) with a
``baseline`` section (the pre-optimization dict-walking policy from
:mod:`repro.baselines.legacy`, driven through the engine's conservative
full-rescan path) and an ``optimized`` section (the plan-compiled
:class:`~repro.core.timestamp.EdgeIndexedPolicy`), so speedups are
measured on the same machine with the same runner.  ``check_regression``
compares a fresh run against a committed document for CI gating.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.system import DSMSystem, PolicyFactory
from repro.workloads import (
    clique_placements,
    random_placements,
    ring_placements,
    run_workload,
    tree_placements,
    uniform_writes,
)

SCHEMA = "repro-bench/1"


def _social_plan(**kwargs: object):
    """Deferred shard-plan builder so importing bench stays light."""
    from repro.shard import social_shard_plan

    return social_shard_plan(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Scenario:
    """One benchmark case: a topology family plus a write workload.

    ``fault=True`` runs the scenario over lossy channels with the full
    reliable-delivery layer armed (seeded plan, so the event sequence --
    and therefore the memory high-water marks -- are identical on every
    machine).  This prices the ARQ envelope/ack/retransmit overhead and
    gives the regression gate a retransmit-log high-water to bound.

    ``runtime`` selects the execution substrate: ``"sim"`` (the default
    discrete-event simulator), ``"aio"`` (the live asyncio runtime,
    pricing the same shared protocol core behind real event-loop
    scheduling), ``"tcp"`` (an in-process loopback TCP cluster where
    every write is a real socket round-trip; see ``_run_tcp_once``), or
    ``"shard"`` (a :class:`~repro.shard.system.ShardedSystem` built from
    ``shard_plan``, driven by a Zipf workload over the plan's logical
    register space; see ``_run_shard_once``).
    Asyncio runs still time CPU via ``process_time`` --
    sleeping on message delays costs no CPU -- but their delivery
    interleavings are wall-clock dependent, so their memory high-water
    marks are excluded from the committed document (see
    ``BenchResult.memory_deterministic``).
    """

    name: str
    placements: Callable[[], Mapping]
    writes: int
    rate: float
    quick_writes: int
    fault: bool = False
    runtime: str = "sim"
    #: Flush window used by the ``batched`` benchmark column (virtual
    #: seconds for the simulator, real seconds for aio/tcp).  0 means the
    #: scenario runs the batched column with coalescing off (fault
    #: scenarios: the ARQ layer acks individual updates).
    batch_window: float = 0.25
    #: TCP scenarios only: drive each session through the pipelined
    #: client (an in-flight window per connection) instead of
    #: write-await-write.
    pipelined: bool = False
    #: Shard scenarios only: builds the :class:`~repro.shard.plan.ShardPlan`
    #: (``placements`` is unused for this runtime).
    shard_plan: Optional[Callable[[], object]] = None
    #: Shard scenarios only: Zipf skew of the logical write workload.
    skew: float = 1.2

    def build_system(
        self,
        policy_factory: Optional[PolicyFactory] = None,
        batched: bool = False,
    ) -> DSMSystem:
        kwargs = {}
        if policy_factory is not None:
            kwargs["policy_factory"] = policy_factory
        if self.fault:
            from repro.network.faults import ChannelFaults, FaultPlan

            kwargs["fault_plan"] = FaultPlan(
                seed=7, default=ChannelFaults(loss=0.05, duplication=0.04)
            )
        if batched and not self.fault:
            kwargs["batch_window"] = self.batch_window
        return DSMSystem(self.placements(), seed=7, **kwargs)


#: The fixed scenario matrix.  ``dense-*`` use high write rates so many
#: updates are in flight at once -- that is what exercises the pending
#: queues; at rate 1.0 the network drains between writes and every
#: topology looks like a tree.
SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in [
        Scenario("tree-16", lambda: tree_placements(16), 2000, 1.0, 300),
        Scenario("ring-12", lambda: ring_placements(12), 2000, 1.0, 300),
        Scenario("clique-8", lambda: clique_placements(8), 800, 1.0, 200),
        # dense-*: batch_window 4.0 trades delivery latency (virtual
        # seconds of coalescing; throughput-oriented deployments accept
        # this) for ~10-member frames, which is what lets the run-apply
        # fast path amortize one merge over a whole frame.  Quick sizes
        # stay large enough (600) for the windows to reach steady state,
        # or the CI gate would compare ramp-up against the committed
        # full-mode steady state.
        Scenario(
            "dense-20",
            lambda: random_placements(20, 60, 8, seed=11),
            1500,
            100.0,
            600,
            batch_window=4.0,
        ),
        Scenario(
            "dense-24",
            lambda: random_placements(24, 80, 10, seed=11),
            1800,
            150.0,
            600,
            batch_window=4.0,
        ),
        Scenario(
            "dense-32",
            lambda: random_placements(32, 120, 12, seed=11),
            2400,
            200.0,
            600,
            batch_window=4.0,
        ),
        Scenario(
            "faulty-12",
            lambda: ring_placements(12),
            1200,
            50.0,
            200,
            fault=True,
            batch_window=0.0,
        ),
        Scenario(
            "aio-12",
            lambda: ring_placements(12),
            600,
            1.0,
            150,
            runtime="aio",
            batch_window=0.001,
        ),
        Scenario(
            "tcp-8",
            lambda: ring_placements(8),
            400,
            1.0,
            100,
            runtime="tcp",
            batch_window=0.005,
        ),
        # Quick size 300: pipelining throughput is a function of burst
        # length (the in-flight window amortizes over a session's ops),
        # so too-small quick runs would sit far below the committed
        # full-mode rows and trip the CI regression gate spuriously.
        Scenario(
            "tcp-8-pipelined",
            lambda: ring_placements(8),
            400,
            1.0,
            300,
            runtime="tcp",
            batch_window=0.005,
            pipelined=True,
        ),
        # shard-*: hundreds of replicas as multicast groups over a tree
        # overlay (repro.shard).  The rows report metadata bytes per
        # logical write against the monolithic share graph over the same
        # logical register space -- the headline economy of sharding.
        # Skew 0.8 keeps the celebrity (cross-group) share of the
        # workload at the ~20% a social write mix exhibits; group size
        # stays at 8 because the per-group loop enumeration is the
        # paper's exponential computation confined to one group.
        # Quick sizes stay >= 1200: below that, the lazy per-sender plan
        # compilation eats a visible fraction of the timed region and
        # quick ops/s sits far below the committed full-mode rows.
        Scenario(
            "shard-128",
            lambda: {},
            3000,
            400.0,
            1200,
            runtime="shard",
            batch_window=4.0,
            shard_plan=lambda: _social_plan(replicas=128, seed=3),
            skew=0.8,
        ),
        Scenario(
            "shard-512",
            lambda: {},
            2400,
            400.0,
            1200,
            runtime="shard",
            batch_window=4.0,
            shard_plan=lambda: _social_plan(
                replicas=512, cross=12, max_fanout=4, seed=3
            ),
            skew=0.8,
        ),
    ]
}

#: Scenario names whose speedup the issue targets (dense topologies).
DENSE_SCENARIOS = ("dense-20", "dense-24")


@dataclass
class BenchResult:
    """Measured numbers for one scenario run."""

    name: str
    writes: int
    replicas: int
    wall_s: float
    ops_per_s: float
    events_per_s: float
    messages: int
    pending_high_water: int
    unacked_high_water: int = 0
    #: Whether the high-water marks are reproducible across machines
    #: (seeded simulator runs are; live asyncio runs depend on wall-clock
    #: delivery timing, so their marks are excluded from the committed
    #: document and the regression gate skips them).
    memory_deterministic: bool = True
    #: Per-operation wall-clock latency percentiles (seconds), measured
    #: only by runtimes that serve each write over a real socket
    #: round-trip (``tcp``); ``None`` elsewhere.
    latency_p50: Optional[float] = None
    latency_p95: Optional[float] = None
    latency_p99: Optional[float] = None
    #: Shard rows only: timestamp wire bytes shipped per logical write,
    #: and the same quantity measured on the monolithic share graph over
    #: the identical logical register space.  Both are seeded and
    #: deterministic, so the regression gate can bound them tightly.
    metadata_bytes_per_op: Optional[float] = None
    monolithic_bytes_per_op: Optional[float] = None

    def to_json(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "writes": self.writes,
            "replicas": self.replicas,
            "wall_s": round(self.wall_s, 6),
            "ops_per_s": round(self.ops_per_s, 1),
            "events_per_s": round(self.events_per_s, 1),
            "messages": self.messages,
        }
        if self.memory_deterministic:
            doc["pending_high_water"] = self.pending_high_water
            doc["unacked_high_water"] = self.unacked_high_water
        if self.latency_p50 is not None:
            doc["latency_p50_ms"] = round(self.latency_p50 * 1e3, 3)
            doc["latency_p95_ms"] = round((self.latency_p95 or 0.0) * 1e3, 3)
            doc["latency_p99_ms"] = round((self.latency_p99 or 0.0) * 1e3, 3)
        if self.metadata_bytes_per_op is not None:
            doc["metadata_bytes_per_op"] = round(self.metadata_bytes_per_op, 1)
        if self.monolithic_bytes_per_op is not None:
            doc["monolithic_bytes_per_op"] = round(
                self.monolithic_bytes_per_op, 1
            )
            doc["metadata_ratio"] = round(
                self.monolithic_bytes_per_op
                / max(self.metadata_bytes_per_op or 1.0, 1e-9),
                1,
            )
        return doc


def _run_aio_once(
    scenario: Scenario,
    writes: int,
    policy_factory: Optional[PolicyFactory],
    verify: bool,
    batched: bool = False,
) -> BenchResult:
    """One asyncio-runtime measurement of ``scenario``.

    Writes are issued back-to-back (the event loop is yielded every few
    writes so deliveries interleave with issues) and the run is timed
    from first write to full settlement.  ``events_per_s`` counts
    updates delivered into the protocol cores (the asyncio analogue of
    the simulator's agenda counter).
    """
    import asyncio

    from repro.aio.runtime import AioDSMSystem

    async def drive() -> BenchResult:
        kwargs = {}
        if policy_factory is not None:
            kwargs["policy_factory"] = policy_factory
        if batched:
            kwargs["batch_window"] = scenario.batch_window
        system = AioDSMSystem(
            scenario.placements(),
            seed=7,
            delay_range=(0.0002, 0.002),
            **kwargs,
        )
        stream = uniform_writes(
            system.graph, writes, rate=scenario.rate, seed=13
        )
        start = time.process_time()
        async with system:
            for index, op in enumerate(stream):
                await system.replica(op.replica).write(op.register, op.value)
                if index % 16 == 15:
                    await asyncio.sleep(0)
            await system.settle()
        wall = max(time.process_time() - start, 1e-9)
        if verify:
            report = system.check()
            if not report.ok:
                raise AssertionError(
                    f"benchmark run violated causal consistency: {report}"
                )
        metrics = system.metrics()
        return BenchResult(
            name=scenario.name,
            writes=writes,
            replicas=len(system.graph),
            wall_s=wall,
            ops_per_s=writes / wall,
            events_per_s=metrics.events_processed / wall,
            messages=metrics.messages_sent,
            pending_high_water=metrics.pending_high_water,
            memory_deterministic=False,
        )

    return asyncio.run(drive())


def _run_tcp_once(
    scenario: Scenario, writes: int, batched: bool = False
) -> BenchResult:
    """One TCP-runtime measurement: an in-process loopback cluster.

    Every write travels client -> home replica as a real socket
    round-trip (OP/OP_REPLY frames through the cluster client), and
    replication between replicas runs over loopback TCP connections, so
    the measured latencies price framing, the event loop, and the kernel
    socket path -- not just the protocol core.  Four concurrent sessions
    split the stream; throughput is wall-clock (a socket benchmark's
    idle time is part of its cost), so ``wall_s`` uses ``monotonic``
    rather than ``process_time`` here.  Convergence (``settle``) stands
    in for the simulator's checker: cursor equality on every edge is
    store/timestamp convergence.
    """
    import asyncio
    import tempfile

    from repro.tcp.client import ClusterClient, percentile
    from repro.tcp.runtime import TcpCluster, TcpConfig

    config = TcpConfig()
    if batched:
        config = TcpConfig(batch_window=scenario.batch_window)

    async def drive() -> BenchResult:
        with tempfile.TemporaryDirectory() as wal_dir:
            async with TcpCluster(
                scenario.placements(), wal_dir, config=config
            ) as cluster:
                graph = cluster.graph
                stream = list(
                    uniform_writes(graph, writes, rate=scenario.rate, seed=13)
                )
                sessions = 4
                latencies: List[float] = []
                start = time.monotonic()

                async def run_session(k: int) -> None:
                    client = ClusterClient(
                        f"bench-{k}", cluster.addresses, op_timeout=10.0
                    )
                    ops = stream[k::sessions]
                    if scenario.pipelined:
                        # Group by home replica to keep one connection
                        # per burst, preserving the per-session order.
                        by_home: Dict[object, List] = {}
                        for op in ops:
                            by_home.setdefault(op.replica, []).append(op)
                        for home, burst in by_home.items():
                            results = await client.write_pipelined(
                                [(str(op.register), op.value) for op in burst],
                                [home],
                                window=16,
                            )
                            latencies.extend(r.latency for r in results)
                    else:
                        for op in ops:
                            result = await client.write(
                                str(op.register), op.value, [op.replica]
                            )
                            latencies.append(result.latency)
                    await client.close()

                await asyncio.gather(
                    *(run_session(k) for k in range(sessions))
                )
                await cluster.settle(timeout=60.0)
                wall = max(time.monotonic() - start, 1e-9)
                messages = sum(
                    link.frames_sent
                    for server in cluster.servers.values()
                    for link in server.links.values()
                )
                # Engine events: issues plus remote applies, the TCP
                # analogue of the simulator's agenda counter.
                events = sum(
                    server.core.metrics.issued
                    + server.core.metrics.applied_remote
                    for server in cluster.servers.values()
                )
                return BenchResult(
                    name=scenario.name,
                    writes=writes,
                    replicas=len(graph),
                    wall_s=wall,
                    ops_per_s=writes / wall,
                    events_per_s=events / wall,
                    messages=messages,
                    pending_high_water=0,
                    memory_deterministic=False,
                    latency_p50=percentile(latencies, 0.50),
                    latency_p95=percentile(latencies, 0.95),
                    latency_p99=percentile(latencies, 0.99),
                )

    return asyncio.run(drive())


def _run_shard_once(
    scenario: Scenario, writes: int, verify: bool
) -> BenchResult:
    """One sharded-runtime measurement of ``scenario``.

    The workload is ``zipf_writes`` over the plan's *logical* register
    space (who may write what), so ``ops_per_s`` counts logical client
    writes -- the overlay's carrier writes are the runtime's own cost,
    priced into the same wall time.  The sharded system always runs
    with the scenario's flush window on (there is no separate
    ``batched`` column -- batching *is* the configuration the row
    documents).  Verification runs the causal checker over the physical
    history plus the final-store audit (including the logical
    cross-register rule for the per-group aliases).
    """
    from repro.shard.system import ShardedSystem
    from repro.workloads.operations import zipf_writes

    plan = scenario.shard_plan() if scenario.shard_plan else None
    if plan is None:
        raise KeyError(f"scenario {scenario.name!r} has no shard_plan")
    system = ShardedSystem(
        plan, seed=7, batch_window=scenario.batch_window  # type: ignore[arg-type]
    )
    stream = zipf_writes(
        plan.logical_graph(),  # type: ignore[attr-defined]
        writes,
        rate=scenario.rate,
        skew=scenario.skew,
        seed=13,
    )
    start = time.process_time()
    run_workload(system, stream)
    wall = max(time.process_time() - start, 1e-9)
    if verify:
        report = system.check()
        if not report.ok:
            raise AssertionError(
                f"benchmark run violated causal consistency: {report}"
            )
        failures = system.audit_stores()
        if failures:
            raise AssertionError(
                f"benchmark run failed the store audit: {failures[:3]}"
            )
    metrics = system.metrics()
    return BenchResult(
        name=scenario.name,
        writes=writes,
        replicas=len(system.graph),
        wall_s=wall,
        ops_per_s=writes / wall,
        events_per_s=system.simulator.events_executed / wall,
        messages=metrics.messages_sent,
        pending_high_water=metrics.pending_high_water,
        unacked_high_water=metrics.unacked_high_water,
        metadata_bytes_per_op=metrics.metadata_bytes_sent / max(1, writes),
    )


def run_scenario(
    scenario: Scenario,
    policy_factory: Optional[PolicyFactory] = None,
    quick: bool = False,
    repeats: int = 3,
    verify: bool = True,
    batched: bool = False,
) -> BenchResult:
    """Run one scenario ``repeats`` times; keep the fastest run.

    Per-sender position plans compile on each sender's first message,
    inside the timed region: a one-off cost per (receiver, sender) pair.

    ``batched`` turns the scenario's flush window on (and, on
    ``tcp-*-pipelined`` scenarios, the pipelined client); whether a
    frame is then folded in lanes or drained is the policy's call.
    """
    writes = scenario.quick_writes if quick else scenario.writes
    best: Optional[BenchResult] = None
    for _ in range(max(1, repeats)):
        if scenario.runtime == "aio":
            result = _run_aio_once(
                scenario, writes, policy_factory, verify, batched=batched
            )
            if best is None or result.wall_s < best.wall_s:
                best = result
            continue
        if scenario.runtime == "tcp":
            result = _run_tcp_once(scenario, writes, batched=batched)
            if best is None or result.wall_s < best.wall_s:
                best = result
            continue
        if scenario.runtime == "shard":
            result = _run_shard_once(scenario, writes, verify)
            if best is None or result.wall_s < best.wall_s:
                best = result
            continue
        system = scenario.build_system(policy_factory, batched=batched)
        stream = uniform_writes(
            system.graph, writes, rate=scenario.rate, seed=13
        )
        start = time.process_time()
        run_workload(system, stream)
        wall = time.process_time() - start
        if verify:
            report = system.check()
            if not report.ok:
                raise AssertionError(
                    f"benchmark run violated causal consistency: {report}"
                )
        metrics = system.metrics()
        wall = max(wall, 1e-9)
        result = BenchResult(
            name=scenario.name,
            writes=writes,
            replicas=len(system.graph),
            wall_s=wall,
            ops_per_s=writes / wall,
            events_per_s=system.simulator.events_executed / wall,
            messages=metrics.messages_sent,
            pending_high_water=metrics.pending_high_water,
            unacked_high_water=metrics.unacked_high_water,
        )
        if best is None or result.wall_s < best.wall_s:
            best = result
    assert best is not None
    if scenario.runtime == "shard" and scenario.shard_plan is not None:
        from repro.shard.system import monolithic_metadata_bytes_per_op

        # Measured once per scenario (not per repeat): bytes/op is
        # deterministic, and a few hundred writes measure it stably.
        best.monolithic_bytes_per_op = monolithic_metadata_bytes_per_op(
            scenario.shard_plan(),  # type: ignore[arg-type]
            min(writes, 240),
            rate=scenario.rate,
            skew=scenario.skew,
        )
    return best


def run_bench(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    compare: bool = False,
    repeats: int = 3,
    batched: bool = False,
    policies: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run the scenario matrix; return the JSON-serializable document.

    With ``compare`` each scenario also runs under the legacy
    (pre-optimization) policy and the document gains a ``baseline``
    section plus per-scenario ``speedup`` ratios.  With ``batched`` each
    scenario additionally runs with its flush window on (a ``batched``
    section plus ``speedup_batched`` ratios against the same document's
    ``optimized`` rows).  With ``policies``
    the document gains a ``policies`` section comparing the named
    timestamp policies (``edge``/``gst``/``adaptive``) over the
    :data:`POLICY_BENCH` matrix; when ``policies`` is given the main
    scenario matrix only runs for explicitly-named scenarios.
    """
    if policies is not None and names is None:
        # ``bench --policy gst`` prices the policy matrix alone -- the
        # main matrix still runs when scenarios are named explicitly.
        doc: Dict[str, object] = {
            "schema": SCHEMA,
            "mode": "quick" if quick else "full",
            "timer": "process_time",
            "repeats": repeats,
            "python": platform.python_version(),
            "optimized": {},
            "policies": run_policy_bench(policies=policies, quick=quick),
        }
        return doc
    wanted = list(names) if names else list(SCENARIOS)
    unknown = [n for n in wanted if n not in SCENARIOS]
    if unknown:
        raise KeyError(
            f"unknown scenarios {unknown}; available: {sorted(SCENARIOS)}"
        )
    doc: Dict[str, object] = {
        "schema": SCHEMA,
        "mode": "quick" if quick else "full",
        "timer": "process_time",
        "repeats": repeats,
        "python": platform.python_version(),
        "optimized": {},
    }
    optimized: Dict[str, object] = doc["optimized"]  # type: ignore[assignment]
    baseline: Dict[str, object] = {}
    speedup: Dict[str, float] = {}
    batched_rows: Dict[str, object] = {}
    speedup_batched: Dict[str, float] = {}
    for name in wanted:
        scenario = SCENARIOS[name]
        # The TCP runtime has no legacy-policy variant to compare: the
        # policy is not the bottleneck a socket round-trip prices.  The
        # shard runtime has neither comparison: the legacy policy cannot
        # even be wired at hundreds of replicas, and the row's own
        # monolithic bytes/op column *is* its comparison.
        compared = compare and scenario.runtime not in ("tcp", "shard")
        if compared:
            from repro.baselines.legacy import legacy_policy_factory

            # Interleave baseline/optimized per scenario so slow drift in
            # machine load hits both sides equally.
            before = run_scenario(
                scenario, legacy_policy_factory, quick=quick, repeats=repeats
            )
            baseline[name] = before.to_json()
        after = run_scenario(scenario, quick=quick, repeats=repeats)
        optimized[name] = after.to_json()
        if compared:
            speedup[name] = round(after.ops_per_s / before.ops_per_s, 2)
        # Shard rows already run batched (that is the configuration
        # they document); a second batched column would measure the same
        # thing twice.
        if batched and scenario.runtime != "shard":
            fast = run_scenario(
                scenario, quick=quick, repeats=repeats, batched=True
            )
            batched_rows[name] = fast.to_json()
            speedup_batched[name] = round(
                fast.ops_per_s / after.ops_per_s, 2
            )
    if compare:
        doc["baseline"] = baseline
        doc["speedup"] = speedup
    if batched:
        doc["batched"] = batched_rows
        doc["speedup_batched"] = speedup_batched
    if policies is not None:
        overlap = [n for n in wanted if n in POLICY_BENCH]
        doc["policies"] = run_policy_bench(
            names=overlap or None, policies=policies, quick=quick
        )
    return doc


# ----------------------------------------------------------------------
# Per-policy rows: metadata bytes/op vs visibility lag (edge vs GST)
# ----------------------------------------------------------------------
#: The policy-comparison matrix: the topology families the adaptive
#: choice must discriminate (trees and cycles where edge-indexed wins
#: outright, dense graphs where GST's two-counter updates win bytes, and
#: a shard-plan-derived placement).  Each entry is ``(placements,
#: writes, rate, quick_writes)``; all rows run on the simulator so the
#: byte counts and visibility lags are seeded and deterministic.
POLICY_BENCH: Dict[str, tuple] = {
    "tree-16": (lambda: tree_placements(16), 1200, 20.0, 300),
    "ring-12": (lambda: ring_placements(12), 1200, 20.0, 300),
    "clique-8": (lambda: clique_placements(8), 800, 40.0, 200),
    "dense-24": (lambda: random_placements(24, 80, 10, seed=11), 1800, 150.0, 600),
    "small-shard": (
        lambda: _social_plan(
            replicas=16,
            group_size=4,
            shared_per_group=4,
            replication=2,
            cross=2,
            seed=3,
        ).placements(),  # type: ignore[attr-defined]
        1200,
        80.0,
        300,
    ),
}

POLICY_TAGS = ("edge", "gst", "adaptive")


def _policy_factory(tag: str) -> Optional[PolicyFactory]:
    if tag == "edge":
        return None  # the system default (EdgeIndexedPolicy)
    if tag == "gst":
        from repro.gst import GstPolicy

        return GstPolicy
    if tag == "adaptive":
        from repro.gst.adaptive import AdaptivePolicy

        return AdaptivePolicy
    raise KeyError(f"unknown policy {tag!r}; available: {POLICY_TAGS}")


def run_policy_scenario(
    name: str, policy: str, quick: bool = False, verify: bool = True
) -> Dict[str, object]:
    """One (scenario, policy) row of the policy-comparison matrix.

    Stabilizing policies get periodic stabilization rounds scheduled
    through the run (so visibility lag reflects the gossip cadence, not
    one final settle), then converge via ``settle_visibility``; the
    causal check runs in visibility mode automatically.
    """
    try:
        placements_fn, writes_full, rate, quick_writes = POLICY_BENCH[name]
    except KeyError:
        raise KeyError(
            f"unknown policy scenario {name!r}; "
            f"available: {sorted(POLICY_BENCH)}"
        ) from None
    writes = quick_writes if quick else writes_full
    system = DSMSystem(
        placements_fn(), seed=7, policy_factory=_policy_factory(policy)
    )
    stream = uniform_writes(system.graph, writes, rate=rate, seed=13)
    horizon = writes / rate
    if system.stabilizing:
        # ~24 rounds across the run: frequent enough that the cut tracks
        # the write frontier, sparse enough that stabilize traffic stays
        # a small fraction of the per-update metadata.
        interval = max(1.0, horizon / 24.0)
        t = interval
        while t <= horizon + 2 * interval:
            system.schedule_stabilize(t)
            t += interval
    start = time.process_time()
    run_workload(system, stream)
    rounds = system.settle_visibility() if system.stabilizing else 0
    wall = max(time.process_time() - start, 1e-9)
    if verify:
        report = system.check()
        if not report.ok:
            raise AssertionError(
                f"policy bench {name}/{policy} violated causal "
                f"consistency: {report}"
            )
    metrics = system.metrics()
    return {
        "policy": policy,
        "writes": writes,
        "replicas": len(system.graph),
        "wall_s": round(wall, 6),
        "ops_per_s": round(writes / wall, 1),
        "messages": metrics.messages_sent,
        "metadata_bytes_per_op": round(
            metrics.metadata_bytes_sent / writes, 1
        ),
        "metadata_counters_per_op": round(
            metrics.metadata_counters_sent / writes, 1
        ),
        "mean_visibility_lag": round(metrics.mean_visible_lag, 3),
        "max_visibility_lag": round(metrics.max_visible_lag, 3),
        "settle_rounds": rounds,
    }


def run_policy_bench(
    names: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    quick: bool = False,
) -> Dict[str, object]:
    """The ``policies`` document section: per-scenario, per-policy rows.

    When both ``edge`` and ``gst`` ran for a scenario, the entry also
    records the measured ``bytes_winner``, the ``predicted`` tag from
    :func:`repro.gst.adaptive.choose_policy_tag`, and whether they
    agree (``adaptive_matches`` -- the crossover claim the tests gate).
    """
    from repro.core.share_graph import ShareGraph
    from repro.gst.adaptive import choose_policy_tag

    wanted = list(names) if names else list(POLICY_BENCH)
    unknown = [n for n in wanted if n not in POLICY_BENCH]
    if unknown:
        raise KeyError(
            f"unknown policy scenarios {unknown}; "
            f"available: {sorted(POLICY_BENCH)}"
        )
    tags = list(policies) if policies else list(POLICY_TAGS)
    for tag in tags:
        _policy_factory(tag)  # validate before the first slow run
    section: Dict[str, object] = {}
    for name in wanted:
        entry: Dict[str, object] = {}
        for tag in tags:
            entry[tag] = run_policy_scenario(name, tag, quick=quick)
        graph = ShareGraph(POLICY_BENCH[name][0]())
        entry["predicted"] = choose_policy_tag(graph)
        edge_row = entry.get("edge")
        gst_row = entry.get("gst")
        if isinstance(edge_row, dict) and isinstance(gst_row, dict):
            edge_bytes = float(edge_row["metadata_bytes_per_op"])
            gst_bytes = float(gst_row["metadata_bytes_per_op"])
            winner = "gst" if gst_bytes < edge_bytes else "edge"
            entry["bytes_winner"] = winner
            entry["adaptive_matches"] = entry["predicted"] == winner
        section[name] = entry
    return section


def check_policy_invariants(doc: Mapping[str, object]) -> List[str]:
    """The deterministic gates over a document's ``policies`` section.

    * On ``dense-24`` GST must beat edge-indexed on metadata bytes/op
      (the headline trade of arXiv:1803.05575's scalar timestamps).
    * On every scenario where both ran, edge-indexed must beat GST on
      visibility lag (its updates are visible at apply; GST defers
      visibility to the stabilization cut, so its lag is positive).

    Returns failure strings (empty = all invariants hold).
    """
    failures: List[str] = []
    policies: Mapping[str, Mapping[str, object]] = doc.get("policies", {})  # type: ignore[assignment]
    for name, entry in policies.items():
        edge_row = entry.get("edge")
        gst_row = entry.get("gst")
        if not isinstance(edge_row, dict) or not isinstance(gst_row, dict):
            continue
        edge_lag = float(edge_row["mean_visibility_lag"])
        gst_lag = float(gst_row["mean_visibility_lag"])
        if not edge_lag < gst_lag:
            failures.append(
                f"{name}: edge visibility lag {edge_lag} not below "
                f"gst {gst_lag}"
            )
        if name == "dense-24":
            edge_bytes = float(edge_row["metadata_bytes_per_op"])
            gst_bytes = float(gst_row["metadata_bytes_per_op"])
            if not gst_bytes < edge_bytes:
                failures.append(
                    f"dense-24: gst metadata {gst_bytes} B/op not below "
                    f"edge {edge_bytes} B/op"
                )
    return failures


@dataclass
class RegressionReport:
    """Outcome of comparing a fresh run against a committed document."""

    failures: List[str] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_regression(
    current: Mapping[str, object],
    committed: Mapping[str, object],
    tolerance: float = 0.30,
) -> RegressionReport:
    """Fail when any scenario's ops/sec dropped more than ``tolerance``,
    or when a memory high-water mark grew past its ceiling.

    Scenarios present in only one document are reported but not failed
    (the matrix may grow between commits).  The ``optimized`` sections
    are always compared; when *both* documents also carry a ``batched``
    section, its rows are gated the same way (so a regression in the
    frame fold or the coalescing path fails CI even while the
    unbatched path stays fast).  The baseline exists for speedup context
    only.

    Two row classes get a widened tolerance (at least 50%): rows measured
    over real sockets (identified by their latency percentiles) are
    wall-clock timed, not CPU timed, so their run-to-run variance is far
    higher than the simulator rows'; and in the ``batched`` section, at
    quick sizes, the flush windows spend a larger fraction of the run
    ramping up than the committed full-mode steady state.  A genuine
    fast-path regression (the run fold no longer firing) drops the dense
    batched rows by ~70%, so the widened gate still catches it without
    tripping on noise.

    The memory gate compares the deterministic per-scenario high-water
    marks (pending buffers, retransmit logs): the workload and all fault
    decisions are seeded, so these numbers are machine-independent, and a
    ceiling of ``max(2 * ref, ref + 8)`` flags genuine buffering
    regressions while leaving room for benign protocol changes.
    """
    report = RegressionReport()
    sections = ["optimized"]
    if "batched" in current and "batched" in committed:
        sections.append("batched")
    for section in sections:
        now: Mapping[str, Mapping[str, float]] = current.get(section, {})  # type: ignore[assignment]
        ref: Mapping[str, Mapping[str, float]] = committed.get(section, {})  # type: ignore[assignment]
        tag = "" if section == "optimized" else f" [{section}]"
        for name in sorted(set(now) | set(ref)):
            if name not in now or name not in ref:
                report.lines.append(
                    f"  {name}{tag}: only in one document, skipped"
                )
                continue
            got = float(now[name]["ops_per_s"])
            want = float(ref[name]["ops_per_s"])
            # Shard rows join the widened class: their quick sizes spend
            # a larger warmup fraction (lazy per-sender plan compilation
            # across hundreds of replicas) than the committed full runs.
            noisy = (
                "latency_p50_ms" in ref[name]
                or "metadata_bytes_per_op" in ref[name]
                or section == "batched"
            )
            row_tolerance = max(tolerance, 0.5) if noisy else tolerance
            floor = want * (1.0 - row_tolerance)
            verdict = "ok" if got >= floor else "REGRESSION"
            report.lines.append(
                f"  {name}{tag}: {got:.0f} ops/s vs committed {want:.0f} "
                f"(floor {floor:.0f}) -> {verdict}"
            )
            if got < floor:
                report.failures.append(
                    f"{name}{tag}: {got:.0f} < {floor:.0f} ops/s "
                    f"({row_tolerance:.0%} below committed {want:.0f})"
                )
            for metric in ("pending_high_water", "unacked_high_water"):
                if metric not in ref[name]:
                    continue  # older committed document: nothing to gate on
                got_hw = int(now[name].get(metric, 0))
                want_hw = int(ref[name][metric])
                ceiling = max(2 * want_hw, want_hw + 8)
                if got_hw > ceiling:
                    report.lines.append(
                        f"  {name}{tag}: {metric} {got_hw} vs committed "
                        f"{want_hw} (ceiling {ceiling}) -> MEMORY REGRESSION"
                    )
                    report.failures.append(
                        f"{name}{tag}: {metric} {got_hw} > ceiling {ceiling} "
                        f"(committed {want_hw})"
                    )
            if "metadata_bytes_per_op" in ref[name]:
                # Byte counts are seeded and deterministic, so the
                # ceiling is tight: 25% headroom covers benign codec or
                # protocol changes, not a lost optimization.
                got_md = float(now[name].get("metadata_bytes_per_op", 0.0))
                want_md = float(ref[name]["metadata_bytes_per_op"])
                md_ceiling = want_md * 1.25
                if got_md > md_ceiling:
                    report.lines.append(
                        f"  {name}{tag}: metadata {got_md:.1f} B/op vs "
                        f"committed {want_md:.1f} (ceiling {md_ceiling:.1f})"
                        " -> METADATA REGRESSION"
                    )
                    report.failures.append(
                        f"{name}{tag}: metadata_bytes_per_op {got_md:.1f} > "
                        f"ceiling {md_ceiling:.1f} (committed {want_md:.1f})"
                    )
            if float(ref[name].get("metadata_ratio", 0.0)) >= 5.0:
                # The headline sharding claim: once a row demonstrates a
                # >= 5x metadata economy over the monolithic graph, it
                # must keep demonstrating it.
                got_ratio = float(now[name].get("metadata_ratio", 0.0))
                if got_ratio < 5.0:
                    report.lines.append(
                        f"  {name}{tag}: metadata ratio {got_ratio:.1f}x "
                        "< 5.0x -> METADATA RATIO REGRESSION"
                    )
                    report.failures.append(
                        f"{name}{tag}: metadata_ratio {got_ratio:.1f} < 5.0 "
                        f"(committed "
                        f"{float(ref[name]['metadata_ratio']):.1f})"
                    )
    if "policies" in current:
        # The policy section's byte counts and lags are seeded, so its
        # invariants gate deterministically on the fresh document alone.
        policy_failures = check_policy_invariants(current)
        for failure in policy_failures:
            report.lines.append(f"  policy invariant: {failure}")
        report.failures.extend(policy_failures)
        if not policy_failures and current["policies"]:
            report.lines.append("  policy invariants: ok")
    return report


def render(doc: Mapping[str, object]) -> str:
    """Human-readable table of a benchmark document."""
    optimized: Mapping[str, Mapping[str, object]] = doc.get("optimized", {})  # type: ignore[assignment]
    baseline: Mapping[str, Mapping[str, object]] = doc.get("baseline", {})  # type: ignore[assignment]
    speedup: Mapping[str, float] = doc.get("speedup", {})  # type: ignore[assignment]
    batched: Mapping[str, Mapping[str, object]] = doc.get("batched", {})  # type: ignore[assignment]
    speedup_batched: Mapping[str, float] = doc.get("speedup_batched", {})  # type: ignore[assignment]
    lines = [
        f"protocol bench ({doc.get('mode')}, best of {doc.get('repeats')}, "
        f"{doc.get('timer')})"
    ]
    header = (
        f"{'scenario':<16} {'ops/s':>9} {'events/s':>10} {'msgs':>8} "
        f"{'pend_hw':>8} {'unack_hw':>9}"
    )
    if baseline:
        header += f" {'base ops/s':>11} {'speedup':>8}"
    if batched:
        header += f" {'batch ops/s':>12} {'msgs':>8} {'x':>6}"
    lines.append(header)
    for name, row in optimized.items():
        pend_hw = row.get("pending_high_water", "-")
        line = (
            f"{name:<16} {row['ops_per_s']:>9.0f} {row['events_per_s']:>10.0f} "
            f"{row['messages']:>8} {pend_hw!s:>8} "
            f"{row.get('unacked_high_water', '-')!s:>9}"
        )
        if name in baseline:
            line += (
                f" {baseline[name]['ops_per_s']:>11.0f}"
                f" {speedup.get(name, 0.0):>7.2f}x"
            )
        if name in batched:
            line += (
                f" {batched[name]['ops_per_s']:>12.0f}"
                f" {batched[name]['messages']:>8}"
                f" {speedup_batched.get(name, 0.0):>5.2f}x"
            )
        if "metadata_bytes_per_op" in row:
            line += (
                f"  md {row['metadata_bytes_per_op']}B/op"
                f" vs mono {row.get('monolithic_bytes_per_op', '-')}B/op"
                f" ({row.get('metadata_ratio', '-')}x)"
            )
        lines.append(line)
    policies: Mapping[str, Mapping[str, object]] = doc.get("policies", {})  # type: ignore[assignment]
    if policies:
        lines.append("")
        lines.append("timestamp policies (metadata bytes/op vs visibility lag)")
        lines.append(
            f"{'scenario':<16} {'policy':<9} {'ops/s':>9} {'md B/op':>9} "
            f"{'counters':>9} {'lag mean':>9} {'lag max':>9}"
        )
        for name, entry in policies.items():
            for tag in POLICY_TAGS:
                row = entry.get(tag)
                if not isinstance(row, dict):
                    continue
                lines.append(
                    f"{name:<16} {tag:<9} {row['ops_per_s']:>9.0f} "
                    f"{row['metadata_bytes_per_op']:>9} "
                    f"{row['metadata_counters_per_op']:>9} "
                    f"{row['mean_visibility_lag']:>9} "
                    f"{row['max_visibility_lag']:>9}"
                )
            if "bytes_winner" in entry:
                match = "ok" if entry.get("adaptive_matches") else "MISMATCH"
                lines.append(
                    f"{'':<16} predicted {entry['predicted']} / measured "
                    f"bytes winner {entry['bytes_winner']} -> {match}"
                )
    return "\n".join(lines)


def save(doc: Mapping[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
