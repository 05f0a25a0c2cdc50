"""Sustained-load soak harness: hold a real TCP cluster under traffic
for minutes while faults arrive on a schedule, and report health as a
time series rather than one burst number.

A soak run composes four concurrent activities over a
:class:`~repro.tcp.cluster.ProcessCluster`:

* **load** -- N client sessions write continuously (optionally
  pipelined) through the retry/failover/dedup
  :class:`~repro.tcp.client.ClusterClient`, until the deadline -- or,
  for a burst (``SoakSpec.writes``), until each has issued its count;
* **faults** -- a declarative, seeded
  :class:`~repro.harness.timeline.FaultAction` timeline is performed at
  its scheduled offsets by :class:`~repro.harness.timeline.ProcessFaults`:
  SIGKILL, kill+restart, partition and slow-replica windows
  (SIGSTOP/SIGCONT -- an established socket that goes silent is exactly
  what the heartbeat failure detector is for), forced connection resets,
  and on-disk WAL corruption (kill, flip one byte of a committed record,
  restart: the replica must quarantine + deep-resync, never crash-loop);
* **visibility probe** -- a dedicated session writes a counter to one
  sharer of a probe register and polls the *other* sharer until the
  write is visible, measuring end-to-end visibility lag (the metric the
  global-stabilization line of work trades off against metadata size);
* **sampler** -- once per interval, a JSONL record captures interval
  throughput, p50/p95/p99 latency, error/retry/shed counts, visibility
  lag, and per-replica health (pending + outbox high-water, resyncs,
  sheds, liveness) pulled from ``status`` ops.

After the deadline the harness heals everything (SIGCONT, respawn the
dead), settles, gracefully shuts the cluster down, and audits the
merged WALs with the real checker + ``store_divergence``.  ``python -m
repro cluster chaos`` is this runner over a count-bounded ``burst``
timeline, and ``cluster load`` (:func:`run_load`) is its session loop
alone, against a cluster somebody else started.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.share_graph import ShareGraph
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    RetryExhaustedError,
)
from repro.harness.process_chaos import audit_cluster, ring_placements
from repro.harness.report import JsonlWriter, Table
from repro.harness.timeline import (
    FaultAction,
    ProcessFaults,
    burst_timeline,
    rolling_restarts,
)
from repro.shard.plan import social_shard_plan
from repro.tcp.client import ClusterClient, SessionStats, percentile
from repro.tcp.cluster import ProcessCluster
from repro.tcp.runtime import TcpConfig

SCENARIOS = (
    "steady",
    "crash-storm",
    "corrupt-wal",
    "overload",
    "shard-storm",
    "burst",
)


# ----------------------------------------------------------------------
# Specification + presets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SoakSpec:
    """One soak run: scenario, scale, duration, and the fault timeline.

    ``timeline=None`` generates the scenario's preset timeline (seeded,
    deterministic); pass an explicit tuple of
    :class:`~repro.harness.timeline.FaultAction` to override it.

    ``writes`` bounds the run by count instead of by time: every session
    issues that many writes, and the load phase ends once all have and
    the whole timeline has run (``duration`` then only scales preset
    timelines).  The recovery gate needs a tail after the last fault, so
    it judges timed runs only.

    ``think_time`` paces each session (seconds of sleep between ops).
    ``0.0`` soaks at full speed -- note the final merged-WAL audit
    walks *every* update ever issued, and the checker's causal-past
    bitmasks make its cost grow quadratically with that count, so a
    multi-minute full-speed soak (~1k ops/s) buys minutes of audit and
    ~GB of checker memory.  A small think time (e.g. ``0.04`` -> ~25
    ops/s/session) keeps long soaks' audits tractable without changing
    what the run proves.
    """

    scenario: str = "steady"
    replicas: int = 3
    sessions: int = 4
    duration: float = 60.0
    sample_interval: float = 1.0
    pipeline_window: int = 1
    seed: int = 0
    settle_timeout: float = 60.0
    think_time: float = 0.0
    config: Optional[TcpConfig] = None
    timeline: Optional[Tuple[FaultAction, ...]] = None
    writes: Optional[int] = None


def shard_soak_placements(
    replicas: int, seed: int = 0
) -> Dict[str, List[str]]:
    """A sharded-deployment topology for soaking: two-plus social-shard
    communities with overlay registers, instead of the default ring.

    Derived from :func:`repro.shard.plan.social_shard_plan` -- the same
    planner behind :class:`~repro.shard.system.ShardedSystem` -- scaled
    down to process-cluster size (``replicas`` rounds up to a multiple
    of the community size, minimum two communities of four).
    """
    group_size = 4
    count = max(
        2 * group_size,
        ((replicas + group_size - 1) // group_size) * group_size,
    )
    plan = social_shard_plan(
        replicas=count,
        group_size=group_size,
        shared_per_group=4,
        replication=2,
        cross=2,
        seed=seed,
    )
    return {
        f"r{rid}": sorted(str(x) for x in regs)
        for rid, regs in plan.placements().items()
    }


def soak_placements(spec: SoakSpec) -> Dict[str, List[str]]:
    """The topology of one soak run (ring, or a shard plan)."""
    if spec.scenario == "shard-storm":
        return shard_soak_placements(spec.replicas, spec.seed)
    return ring_placements(spec.replicas)


def scenario_config(scenario: str, base: Optional[TcpConfig]) -> TcpConfig:
    """Per-scenario TcpConfig defaults (a user-supplied config wins)."""
    if base is not None:
        return base
    if scenario == "overload":
        # A threshold low enough that killing one of three replicas
        # makes the survivors' backlog cross it under modest load.
        return TcpConfig(shed_threshold=48)
    return TcpConfig()


def timeline_for(scenario: str, spec: SoakSpec) -> Tuple[FaultAction, ...]:
    """The seeded preset fault timeline of one named scenario.

    Faults stop at ~70% of the run so the tail shows recovery: the
    final checker gate wants to see throughput come back after the last
    scheduled fault, not a cluster still mid-chaos at the deadline.
    """
    if spec.timeline is not None:
        return spec.timeline
    if scenario == "steady":
        return ()
    rng = random.Random(f"{spec.seed}:{scenario}:timeline")
    placements = soak_placements(spec)
    names = sorted(placements)
    horizon = spec.duration * 0.7
    if scenario == "crash-storm":
        # Rolling kill+restart waves across the ring, ~6s apart, and one
        # partition window mid-storm for good measure.
        step = max(5.0, spec.duration / 10.0)
        return rolling_restarts(names, rng, spec.duration, step, 1, "storm")
    if scenario == "shard-storm":
        # The same wave over a sharded deployment: victims hop across
        # communities so the overlay path keeps losing hops, and the
        # partition window lands on a hub-community member.
        return rolling_restarts(
            names,
            rng,
            spec.duration,
            max(5.0, spec.duration / 8.0),
            max(1, len(names) // 2 + 1),
            "shard",
            partition_victim=names[0],
        )
    if scenario == "burst":
        return burst_timeline(placements, kills=1, resets=1, seed=spec.seed)
    if scenario == "corrupt-wal":
        first = max(6.0, spec.duration / 3.0)
        victim = names[rng.randrange(len(names))]
        actions = [FaultAction(round(first, 2), "corrupt_wal", victim)]
        if spec.duration >= 45:
            second = min(horizon, first * 2)
            other = names[(names.index(victim) + 1) % len(names)]
            actions.append(FaultAction(round(second, 2), "corrupt_wal", other))
        return tuple(actions)
    if scenario == "overload":
        victim = names[rng.randrange(len(names))]
        down_at = max(4.0, spec.duration * 0.2)
        up_at = min(horizon, max(down_at + 5.0, spec.duration * 0.55))
        slow_at = min(horizon, up_at + spec.duration * 0.1)
        return (
            FaultAction(round(down_at, 2), "kill", victim, detail="overload"),
            FaultAction(round(up_at, 2), "restart", victim),
            FaultAction(
                round(slow_at, 2),
                "slow",
                names[(names.index(victim) + 1) % len(names)],
                duration=min(5.0, spec.duration * 0.1),
            ),
        )
    raise ConfigurationError(
        f"unknown soak scenario {scenario!r}; pick one of {SCENARIOS}"
    )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class LoadReport:
    """Throughput/latency/error summary of one load phase: what
    ``cluster load`` reports and what every soak summary embeds."""

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
    #: Ops that exhausted their retry budget, attempts shed by
    #: overloaded replicas, and per-op rates.
    errors: int
    sheds: int
    retry_rate: float
    error_rate: float
    #: Effective batching/pipelining configuration the load ran with.
    config: Dict[str, Any]

    @classmethod
    def of(
        cls,
        state: "_SoakState",
        sessions: Sequence[SessionStats],
        duration: float,
        spec: "SoakSpec",
        tcp_config: Mapping[str, Any],
    ) -> "LoadReport":
        latencies, errors = state.latencies, state.errors
        ops = len(latencies)
        retries = sum(s.retries for s in sessions)
        return cls(
            ops=ops,
            duration=duration,
            throughput=ops / duration if duration > 0 else 0.0,
            p50=percentile(latencies, 0.50),
            p95=percentile(latencies, 0.95),
            p99=percentile(latencies, 0.99),
            retries=retries,
            failovers=sum(s.failovers for s in sessions),
            connects=sum(s.connects for s in sessions),
            errors=errors,
            sheds=sum(s.sheds for s in sessions),
            retry_rate=retries / ops if ops else 0.0,
            error_rate=errors / (ops + errors) if (ops or errors) else 0.0,
            config={
                "sessions": spec.sessions,
                "writes_per_session": spec.writes,
                "pipeline_window": spec.pipeline_window,
                "batch_window": tcp_config.get("batch_window", 0.0),
                "batch_max": tcp_config.get("batch_max"),
                "shed_threshold": tcp_config.get("shed_threshold"),
            },
        )

    def to_json(self) -> Dict[str, Any]:
        return dict(self.__dict__, config=dict(self.config))

    def render(self) -> str:
        return _render("load", self.to_json())


@dataclass
class SoakReport:
    """Final verdict + aggregates; the time series lives in the JSONL."""

    ok: bool
    scenario: str
    violations: List[str]
    duration: float  # boot to shutdown; ``load.duration`` is the load phase
    samples: int
    load: LoadReport
    faults: int
    kills: int  # SIGKILLs delivered (kill, restart, corrupt_wal)
    resets: int  # link resets that reached their victim
    peak_throughput: float
    visibility_p95: Optional[float]
    recovered: Optional[bool]  # None: a counted run has no tail to judge
    resyncs: int
    quarantines: int
    wal_events: int
    report_path: Optional[str]

    def to_json(self) -> Dict[str, Any]:
        """One flat document: the run's keys, then the load record's
        (its ``duration``, the load phase alone, as ``load_duration``)."""
        doc = dict(self.__dict__, violations=list(self.violations))
        load = doc.pop("load").to_json()
        load["load_duration"] = load.pop("duration")
        return {**doc, **load, "mean_throughput": load["throughput"]}

    def render(self) -> str:
        return _render(f"soak {self.scenario}", self.to_json())


def _render(title: str, doc: Mapping[str, Any]) -> str:
    """A report document as a two-column table: every scalar, the
    ``config`` mapping one level down, lists by their length."""
    table = Table(title, ["metric", "value"])
    rows: List[Tuple[str, Any]] = []
    for key, value in doc.items():
        if isinstance(value, dict):
            rows += [(f"{key}.{k}", v) for k, v in sorted(value.items())]
        elif isinstance(value, list):
            rows.append((key, len(value)))
        else:
            rows.append((key, value))
    for key, value in rows:
        cell = f"{value:.6g}" if isinstance(value, float) else value
        table.add_row(key, cell)
    return table.render()


# ----------------------------------------------------------------------
# Run state shared between the tasks
# ----------------------------------------------------------------------
@dataclass
class _SoakState:
    latencies: List[float] = field(default_factory=list)
    errors: int = 0
    visibility: List[float] = field(default_factory=list)
    deadline: float = math.inf  # a timed run sets it; a counted one never
    stop: bool = False

    def running(self) -> bool:
        return not self.stop and time.monotonic() < self.deadline


async def _session(
    name: str,
    addresses: Dict[str, Tuple[str, int]],
    graph: ShareGraph,
    spec: SoakSpec,
    state: _SoakState,
) -> SessionStats:
    """One write session: random registers at a random sharer, until the
    run stops or ``spec.writes`` are issued.  ``pipeline_window > 1``
    keeps that many ops in flight per register burst.

    An op that exhausts its retry budget mid-fault is counted and the
    session moves on: one unlucky op must dent the error rate, not
    vaporize every other session's measurements.
    """
    rng = random.Random(f"{spec.seed}:{name}")
    registers = sorted(graph.registers, key=str)
    budget = math.inf if spec.writes is None else spec.writes
    client = ClusterClient(
        name,
        addresses,
        op_timeout=1.0,
        max_attempts=40,
        retry_delay=0.05,
    )
    i = 0
    try:
        while i < budget and state.running():
            register = rng.choice(registers)
            targets = sorted(
                (str(r) for r in graph.replicas_storing(register)),
                key=lambda r: rng.random(),
            )
            chunk = 1
            if spec.pipeline_window > 1:
                chunk = int(min(budget - i, spec.pipeline_window * 2))
            try:
                if chunk == 1:
                    results = [
                        await client.write(register, f"{name}:{i}", targets)
                    ]
                else:
                    ops = [(register, f"{name}:{i + j}") for j in range(chunk)]
                    results = await client.write_pipelined(
                        ops, targets, window=spec.pipeline_window
                    )
                state.latencies.extend(r.latency for r in results)
            except RetryExhaustedError:
                state.errors += 1
                await asyncio.sleep(0.1)
            i += chunk
            if spec.think_time > 0:
                await asyncio.sleep(spec.think_time)
    finally:
        await client.close()
    return client.stats


async def run_load(
    addresses: Dict[str, Tuple[str, int]],
    placements: Mapping[str, Any],
    sessions: int = 4,
    writes_per_session: int = 50,
    seed: int = 0,
    pipeline_window: int = 1,
    tcp_config: Optional[Mapping[str, Any]] = None,
) -> LoadReport:
    """Drive concurrent counted write sessions against a running cluster.

    The sessions retry, fail over and dedup, so the burst keeps making
    progress through restarts and resets happening underneath.
    ``tcp_config`` (the cluster's effective ``TcpConfig`` as a mapping,
    e.g. the ``config`` section of ``cluster.json``) is echoed into the
    report so batching/pipelining settings travel with the numbers.
    """
    graph = ShareGraph({r: set(x) for r, x in placements.items()})
    spec = SoakSpec(
        sessions=sessions,
        writes=writes_per_session,
        seed=seed,
        pipeline_window=pipeline_window,
    )
    state = _SoakState()
    started = time.monotonic()
    stats = await asyncio.gather(
        *(
            _session(f"s{i}", addresses, graph, spec, state)
            for i in range(sessions)
        )
    )
    return LoadReport.of(
        state, stats, time.monotonic() - started, spec, tcp_config or {}
    )


async def _visibility_probe(
    cluster: ProcessCluster,
    graph: ShareGraph,
    spec: SoakSpec,
    state: _SoakState,
) -> None:
    """Write a counter at one sharer, poll the other until it shows up.

    Uses ``priority=1`` so overload shedding never starves the probe;
    a probe that cannot complete within its budget (replica down, mid
    -restart) records nothing for the interval rather than poisoning the
    lag series with retry noise.
    """
    register = sorted(graph.registers, key=str)[0]
    sharers = sorted(str(r) for r in graph.replicas_storing(register))
    if len(sharers) < 2:
        return
    writer_t, reader_t = sharers[0], sharers[1]
    client = ClusterClient(
        "visibility-probe",
        cluster.addresses,
        op_timeout=0.5,
        max_attempts=4,
        retry_delay=0.05,
    )
    n = 0
    try:
        while state.running():
            n += 1
            budget = min(5.0, max(1.0, spec.sample_interval * 2))
            started = time.monotonic()
            try:
                await client.write(
                    register, f"{n}:probe", [writer_t, reader_t], priority=1
                )
                while time.monotonic() - started < budget:
                    result = await client.read(register, [reader_t])
                    # Only this probe writes "<n>:probe"; a load session
                    # overwriting it first costs the interval its point.
                    if result.value == f"{n}:probe":
                        state.visibility.append(time.monotonic() - started)
                        break
                    await asyncio.sleep(0.02)
            except RetryExhaustedError:
                pass
            await asyncio.sleep(max(0.2, spec.sample_interval / 2))
    finally:
        await client.close()


async def _sampler(
    cluster: ProcessCluster,
    spec: SoakSpec,
    state: _SoakState,
    writer: JsonlWriter,
    t0: float,
) -> List[Dict[str, Any]]:
    """One JSONL sample per interval while the run lasts.

    Polling every replica's ``status`` takes time of its own (up to the
    op timeout per SIGSTOPped replica), so a sample's rate is its ops
    over the time *measured* since the previous sample was taken, and
    that ``elapsed`` is part of the record.
    """
    samples: List[Dict[str, Any]] = []
    taken, seen_ops, seen_errors, seen_lags = t0, 0, 0, 0
    while state.running():
        await asyncio.sleep(spec.sample_interval)
        latencies = state.latencies[seen_ops:]
        errors = state.errors - seen_errors
        visibility = state.visibility[seen_lags:]
        now = time.monotonic()
        elapsed, taken = now - taken, now
        seen_ops += len(latencies)
        seen_errors += errors
        seen_lags += len(visibility)
        statuses = await cluster.statuses(op_timeout=0.5)
        replicas: Dict[str, Any] = {}
        for name in sorted(cluster.placements):
            if not cluster.alive(name):
                replicas[name] = {"alive": False}
                continue
            if name not in statuses:
                replicas[name] = {"alive": True, "status": "unreachable"}
                continue
            status = statuses[name]
            metrics = status.get("metrics", {})
            replicas[name] = {
                "alive": True,
                "pending": status.get("pending", 0),
                "pending_high_water": metrics.get("pending_high_water", 0),
                "outbox_high_water": metrics.get("outbox_high_water", 0),
                "resyncs": metrics.get("resyncs_served", 0),
                "ops_shed": metrics.get("ops_shed", 0),
                "recovering": status.get("recovering", False),
            }
        sample = {
            "kind": "sample",
            "t": round(taken - t0, 3),
            "elapsed": round(elapsed, 3),
            "ops": len(latencies),
            "throughput": round(len(latencies) / elapsed, 2),
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
            "errors": errors,
            "visibility_lag": (
                round(max(visibility), 4) if visibility else None
            ),
            "replicas": replicas,
        }
        samples.append(sample)
        writer.emit(sample)
    return samples


def _throughput_recovered(
    samples: List[Dict[str, Any]],
    faults: List[Dict[str, Any]],
) -> bool:
    """Did interval throughput come back after the last scheduled fault?

    Gate: the mean throughput of the tail after the last fault *ended*
    (a window's ``t + duration``) must reach half the mean before that.
    Loose on purpose -- runner speed varies -- but a replica stuck in a
    crash loop or a cluster wedged by a bad resync keeps the tail near
    zero and fails it.
    """
    if not samples:
        return False
    if not faults:
        return True
    faults_end = max(f["t"] + f.get("duration", 0.0) for f in faults)
    tail = [s["throughput"] for s in samples if s["t"] > faults_end]
    before = [s["throughput"] for s in samples if s["t"] <= faults_end]
    if not tail:
        return False
    baseline = (sum(before) / len(before)) if before else None
    tail_mean = sum(tail) / len(tail)
    if baseline is None or baseline <= 0:
        return tail_mean > 0
    return tail_mean >= 0.5 * baseline


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
async def run_soak(
    spec: SoakSpec,
    workdir: str,
    report_path: Optional[str] = None,
) -> SoakReport:
    """Run one soak scenario end to end; returns the final report.

    The JSONL time series goes to ``report_path`` (kinds: ``header``,
    ``fault``, ``sample``, ``summary``); the returned
    :class:`SoakReport` holds the aggregates and the audit verdict.
    """
    placements = soak_placements(spec)
    graph = ShareGraph({r: set(x) for r, x in placements.items()})
    config = scenario_config(spec.scenario, spec.config)
    timeline = timeline_for(spec.scenario, spec)
    cluster = ProcessCluster(placements, workdir, config=config)
    state = _SoakState()
    violations: List[str] = []
    samples: List[Dict[str, Any]] = []
    sessions: List[SessionStats] = []
    statuses: Dict[str, Dict[str, Any]] = {}
    tasks: List[asyncio.Future] = []
    load_duration = 0.0
    started = time.monotonic()
    with JsonlWriter(report_path) as writer:
        faults = ProcessFaults(cluster, timeline, writer.emit)
        # The header is the experiment: every spec field, with the
        # effective config and the resolved timeline in place of None.
        header = dataclasses.replace(spec, config=config, timeline=timeline)
        writer.emit({"kind": "header", **dataclasses.asdict(header)})
        try:
            cluster.start_all()
            await cluster.wait_ready()
            t0 = time.monotonic()
            if spec.writes is None:
                state.deadline = t0 + spec.duration
            session_tasks = [
                asyncio.ensure_future(
                    _session(f"s{i}", cluster.addresses, graph, spec, state)
                )
                for i in range(spec.sessions)
            ]
            fault_task = asyncio.ensure_future(faults.run(t0))
            sampler = asyncio.ensure_future(
                _sampler(cluster, spec, state, writer, t0)
            )
            probe = asyncio.ensure_future(
                _visibility_probe(cluster, graph, spec, state)
            )
            tasks = [*session_tasks, fault_task, sampler, probe]
            sessions = await asyncio.gather(*session_tasks)
            load_duration = time.monotonic() - t0
            # The whole timeline runs even when a counted load finished
            # first: a reset during settling is still a real fault.
            await fault_task
            state.stop = True
            samples = await sampler
            await probe
            # Heal: thaw everything, resurrect the dead, settle, drain.
            faults.heal()
            await cluster.wait_ready(timeout=30.0)
            statuses = await cluster.settle(timeout=spec.settle_timeout)
            await cluster.shutdown_all()
        except ConfigurationError as exc:
            violations.append(f"soak did not settle: {exc}")
        finally:
            state.stop = True
            for task in tasks:
                task.cancel()
            cluster.terminate_all()
        duration = time.monotonic() - started
        wal_events = 0
        try:
            audit_violations, wal_events = audit_cluster(cluster, graph)
            violations.extend(audit_violations)
        except ProtocolError as exc:
            # A corrupt WAL at audit time means a replica never came
            # back to quarantine it -- report, don't crash the harness.
            violations.append(f"audit failed: {exc}")
        fired = [r for r in writer.records if r["kind"] == "fault"]
        recovered = (
            _throughput_recovered(samples, fired)
            if spec.writes is None
            else None
        )
        if timeline and recovered is False:
            violations.append(
                "throughput did not recover after the last scheduled fault"
            )
        if spec.writes is not None and state.errors:
            violations.append(
                f"{state.errors} counted writes exhausted their retry budget"
            )
        metrics = [s.get("metrics", {}) for s in statuses.values()]
        report = SoakReport(
            ok=not violations,
            scenario=spec.scenario,
            violations=violations,
            duration=duration,
            samples=len(samples),
            load=LoadReport.of(
                state,
                sessions,
                load_duration,
                spec,
                dataclasses.asdict(config),
            ),
            faults=len(fired),
            kills=sum(
                r["action"] in ("kill", "restart", "corrupt_wal")
                for r in fired
            ),
            resets=sum(
                r["action"] == "reset" and "failed" not in r for r in fired
            ),
            peak_throughput=max(
                (s["throughput"] for s in samples), default=0.0
            ),
            visibility_p95=(
                percentile(state.visibility, 0.95)
                if state.visibility
                else None
            ),
            recovered=recovered,
            resyncs=sum(m.get("resyncs_served", 0) for m in metrics),
            quarantines=sum(m.get("wal_quarantines", 0) for m in metrics),
            wal_events=wal_events,
            report_path=report_path,
        )
        writer.emit({"kind": "summary", **report.to_json()})
    return report
