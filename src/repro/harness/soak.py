"""Sustained-load soak harness: hold a real TCP cluster under traffic
for minutes while faults arrive on a schedule, and report health as a
time series rather than one burst number.

A soak run composes four concurrent activities over a
:class:`~repro.tcp.cluster.ProcessCluster`:

* **load** -- N client sessions write continuously (optionally
  pipelined) through the retry/failover/dedup
  :class:`~repro.tcp.client.ClusterClient`, until the deadline;
* **faults** -- a declarative, seeded :class:`FaultAction` timeline is
  executed at its scheduled offsets: SIGKILL, kill+restart, partition
  and slow-replica windows (SIGSTOP/SIGCONT -- an established socket
  that goes silent is exactly what the heartbeat failure detector is
  for), and on-disk WAL corruption (kill, flip one byte of a committed
  record, restart: the replica must quarantine + deep-resync, never
  crash-loop);
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
merged WALs with the real checker + ``store_divergence`` -- the same
ground-truth audit as the burst chaos trial, now at the end of minutes
of scheduled damage.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.share_graph import ShareGraph
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    RetryExhaustedError,
)
from repro.harness.process_chaos import audit_cluster, ring_placements
from repro.harness.report import JsonlWriter, Table
from repro.shard.plan import social_shard_plan
from repro.tcp.client import ClusterClient, percentile
from repro.tcp.cluster import ProcessCluster
from repro.tcp.runtime import TcpConfig

SCENARIOS = (
    "steady",
    "crash-storm",
    "corrupt-wal",
    "overload",
    "shard-storm",
)


# ----------------------------------------------------------------------
# Fault timeline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault.

    ``kind`` is one of:

    * ``"kill"`` -- SIGKILL ``target`` and leave it down (a later
      ``"restart"`` may bring it back);
    * ``"restart"`` -- SIGKILL (if alive) and respawn over the same WAL;
    * ``"partition"`` -- SIGSTOP ``target`` for ``duration`` seconds,
      then SIGCONT: sockets stay open but silent, so peers' heartbeat
      detectors suspect it and reconcile via anti-entropy on thaw;
    * ``"slow"`` -- duty-cycled SIGSTOP/SIGCONT over ``duration``
      seconds (roughly half-speed replica: stalls shorter than the
      heartbeat timeout, so it degrades without being declared dead);
    * ``"corrupt_wal"`` -- SIGKILL ``target``, flip one byte of a
      committed (non-final) WAL record on disk, respawn: exercises
      checksum detection, quarantine, and deep-resync repair.

    ``time`` is the offset from the start of the load phase, seconds.
    """

    time: float
    kind: str
    target: str
    duration: float = 0.0
    detail: str = ""


def corrupt_wal_record(path: str, prefer: str = "apply") -> Optional[int]:
    """Flip one byte of a committed (non-final) record; returns the line.

    Picks the middle-most line whose record kind matches ``prefer``
    (``"apply"`` keeps the damage repairable from the replica's own
    salvage + the peers' deep replay), falling back to any non-final
    line.  Returns ``None`` when the log is too short to corrupt
    mid-file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError:
        return None
    while lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 3:
        return None
    candidates = [
        idx
        for idx, line in enumerate(lines[:-1])
        if f'"k": "{prefer}"' in line or f'"k":"{prefer}"' in line
    ]
    if not candidates:
        candidates = list(range(len(lines) - 1))
    index = candidates[len(candidates) // 2]
    line = lines[index]
    # Flip one bit of the hex payload region (keeps the line valid JSON,
    # so only the CRC can catch it -- the adversarial case).
    flip_at = len(line) // 2
    flipped = chr(ord(line[flip_at]) ^ 0x01)
    if flipped in "\"\\\n{}":
        flipped = "0" if line[flip_at] != "0" else "1"
    lines[index] = line[:flip_at] + flipped + line[flip_at + 1 :]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return index + 1


# ----------------------------------------------------------------------
# Specification + presets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SoakSpec:
    """One soak run: scenario, scale, duration, and the fault timeline.

    ``timeline=None`` generates the scenario's preset timeline (seeded,
    deterministic); pass an explicit tuple of :class:`FaultAction` to
    override it.

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


def shard_soak_placements(
    replicas: int, seed: int = 0
) -> Dict[str, List[str]]:
    """A sharded-deployment topology for soaking: two-plus social-shard
    communities with overlay registers, instead of the default ring.

    Derived from :func:`repro.shard.plan.social_shard_plan` -- the same
    planner behind :class:`~repro.shard.runtime.ShardedSystem` -- scaled
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
    rng = random.Random(f"{spec.seed}:{scenario}:timeline")
    names = sorted(soak_placements(spec))
    horizon = spec.duration * 0.7
    actions: List[FaultAction] = []
    if scenario == "steady":
        return ()
    if scenario == "shard-storm":
        # The crash-storm wave over a sharded deployment: rolling
        # kill+restart across communities (victims alternate between
        # groups so the overlay path keeps losing hops), plus one
        # partition window on a hub-community member.
        step = max(5.0, spec.duration / 8.0)
        t = step
        index = rng.randrange(len(names))
        stride = max(1, len(names) // 2 + 1)  # hop across communities
        while t < horizon:
            victim = names[index % len(names)]
            actions.append(
                FaultAction(round(t, 2), "restart", victim, detail="shard")
            )
            index += stride
            t += step * (0.75 + rng.random() * 0.5)
        if spec.duration >= 30:
            actions.append(
                FaultAction(
                    round(horizon * 0.5, 2),
                    "partition",
                    names[0],
                    duration=min(4.0, spec.duration * 0.08),
                )
            )
        return tuple(sorted(actions, key=lambda a: a.time))
    if scenario == "crash-storm":
        # Rolling kill+restart waves across the ring, ~6s apart.
        step = max(5.0, spec.duration / 10.0)
        t = step
        index = rng.randrange(len(names))
        while t < horizon:
            victim = names[index % len(names)]
            actions.append(
                FaultAction(round(t, 2), "restart", victim, detail="storm")
            )
            index += 1
            t += step * (0.75 + rng.random() * 0.5)
        # One partition window mid-storm for good measure.
        if spec.duration >= 30:
            victim = names[index % len(names)]
            actions.append(
                FaultAction(
                    round(horizon * 0.5, 2),
                    "partition",
                    victim,
                    duration=min(4.0, spec.duration * 0.08),
                )
            )
        return tuple(sorted(actions, key=lambda a: a.time))
    if scenario == "corrupt-wal":
        first = max(6.0, spec.duration / 3.0)
        victims = [names[rng.randrange(len(names))]]
        actions.append(FaultAction(round(first, 2), "corrupt_wal", victims[0]))
        if spec.duration >= 45:
            second = min(horizon, first * 2)
            other = names[(names.index(victims[0]) + 1) % len(names)]
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
# Report
# ----------------------------------------------------------------------
@dataclass
class SoakReport:
    """Final verdict + aggregates; the time series lives in the JSONL."""

    ok: bool
    scenario: str
    violations: List[str]
    duration: float
    samples: int
    ops: int
    errors: int
    sheds: int
    retries: int
    failovers: int
    connects: int
    faults: int
    mean_throughput: float
    peak_throughput: float
    p50: float
    p95: float
    p99: float
    visibility_p95: Optional[float]
    recovered: bool
    resyncs: int
    quarantines: int
    report_path: Optional[str]

    def to_json(self) -> Dict[str, Any]:
        return dict(self.__dict__, violations=list(self.violations))

    def render(self) -> str:
        table = Table(
            f"soak {self.scenario}",
            ["metric", "value"],
        )
        table.add_row("ok", self.ok)
        table.add_row("duration_s", self.duration)
        table.add_row("samples", self.samples)
        table.add_row("ops", self.ops)
        table.add_row("mean_throughput", self.mean_throughput)
        table.add_row("peak_throughput", self.peak_throughput)
        table.add_row("p50_ms", self.p50 * 1000)
        table.add_row("p95_ms", self.p95 * 1000)
        table.add_row("p99_ms", self.p99 * 1000)
        table.add_row(
            "visibility_p95_ms",
            self.visibility_p95 * 1000 if self.visibility_p95 else "n/a",
        )
        table.add_row("errors", self.errors)
        table.add_row("sheds", self.sheds)
        table.add_row("retries", self.retries)
        table.add_row("failovers", self.failovers)
        table.add_row("connects", self.connects)
        table.add_row("faults", self.faults)
        table.add_row("resyncs", self.resyncs)
        table.add_row("quarantines", self.quarantines)
        table.add_row("recovered", self.recovered)
        table.add_row("violations", len(self.violations))
        return table.render()


# ----------------------------------------------------------------------
# Run state shared between the tasks
# ----------------------------------------------------------------------
class _SoakState:
    def __init__(self) -> None:
        self.latencies_total: List[float] = []
        self.interval_latencies: List[float] = []
        self.interval_ops = 0
        self.errors = 0
        self.sheds_seen = 0
        self.interval_errors = 0
        self.visibility: List[float] = []
        self.interval_visibility: List[float] = []
        self.faults_done = 0
        self.stop = False

    def op_done(self, latency: float) -> None:
        self.latencies_total.append(latency)
        self.interval_latencies.append(latency)
        self.interval_ops += 1

    def op_failed(self) -> None:
        self.errors += 1
        self.interval_errors += 1

    def take_interval(self) -> Tuple[int, List[float], int, List[float]]:
        out = (
            self.interval_ops,
            self.interval_latencies,
            self.interval_errors,
            self.interval_visibility,
        )
        self.interval_ops = 0
        self.interval_latencies = []
        self.interval_errors = 0
        self.interval_visibility = []
        return out


async def _soak_session(
    name: str,
    cluster: ProcessCluster,
    graph: ShareGraph,
    spec: SoakSpec,
    state: _SoakState,
    deadline: float,
) -> ClusterClient:
    rng = random.Random(f"{spec.seed}:{name}")
    registers = sorted(graph.registers, key=str)
    client = ClusterClient(
        name,
        cluster.addresses,
        op_timeout=1.0,
        max_attempts=12,
        retry_delay=0.05,
    )
    i = 0
    while time.monotonic() < deadline and not state.stop:
        register = rng.choice(registers)
        targets = sorted(
            (str(r) for r in graph.replicas_storing(register)),
            key=lambda r: rng.random(),
        )
        try:
            if spec.pipeline_window > 1:
                chunk = spec.pipeline_window * 2
                ops = [(register, f"{name}:{i + j}") for j in range(chunk)]
                for result in await client.write_pipelined(
                    ops, targets, window=spec.pipeline_window
                ):
                    state.op_done(result.latency)
                i += chunk
            else:
                result = await client.write(register, f"{name}:{i}", targets)
                state.op_done(result.latency)
                i += 1
        except RetryExhaustedError:
            # Budget exhausted mid-fault: count it and keep soaking.
            state.op_failed()
            i += 1
            await asyncio.sleep(0.1)
        if spec.think_time > 0:
            await asyncio.sleep(spec.think_time)
    await client.close()
    return client


async def _visibility_probe(
    cluster: ProcessCluster,
    graph: ShareGraph,
    spec: SoakSpec,
    state: _SoakState,
    deadline: float,
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
    while time.monotonic() < deadline and not state.stop:
        n += 1
        budget = min(5.0, max(1.0, spec.sample_interval * 2))
        started = time.monotonic()
        try:
            await client.write(
                register, f"{n}:probe", [writer_t, reader_t], priority=1
            )
            while time.monotonic() - started < budget:
                result = await client.read(register, [reader_t])
                value = result.value
                seen = 0
                if isinstance(value, str) and ":" in value:
                    try:
                        seen = int(value.split(":", 1)[0])
                    except ValueError:
                        seen = 0
                if seen >= n:
                    lag = time.monotonic() - started
                    state.visibility.append(lag)
                    state.interval_visibility.append(lag)
                    break
                await asyncio.sleep(0.02)
        except RetryExhaustedError:
            pass
        await asyncio.sleep(max(0.2, spec.sample_interval / 2))
    await client.close()


async def _fault_executor(
    cluster: ProcessCluster,
    spec: SoakSpec,
    timeline: Tuple[FaultAction, ...],
    state: _SoakState,
    writer: JsonlWriter,
    t0: float,
) -> List[asyncio.Task]:
    """Execute the timeline at its offsets; windowed faults run as
    subtasks so the schedule never blocks on a partition healing."""
    subtasks: List[asyncio.Task] = []

    async def window(action: FaultAction) -> None:
        if action.kind == "partition":
            cluster.sigstop(action.target)
            try:
                await asyncio.sleep(action.duration)
            finally:
                cluster.sigcont(action.target)
        else:  # slow: duty-cycle stalls shorter than the heartbeat timeout
            cfg = cluster.config
            stall = max(0.05, min(cfg.heartbeat_timeout * 0.4, 0.4))
            until = time.monotonic() + action.duration
            try:
                while time.monotonic() < until:
                    cluster.sigstop(action.target)
                    await asyncio.sleep(stall)
                    cluster.sigcont(action.target)
                    await asyncio.sleep(stall)
            finally:
                cluster.sigcont(action.target)

    for action in sorted(timeline, key=lambda a: a.time):
        delay = t0 + action.time - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        if state.stop:
            break
        record: Dict[str, Any] = {
            "kind": "fault",
            "t": round(time.monotonic() - t0, 3),
            "action": action.kind,
            "target": action.target,
        }
        if action.kind == "kill":
            cluster.sigkill(action.target)
        elif action.kind == "restart":
            cluster.restart(action.target)
        elif action.kind in ("partition", "slow"):
            record["duration"] = action.duration
            subtasks.append(asyncio.ensure_future(window(action)))
        elif action.kind == "corrupt_wal":
            cluster.sigkill(action.target)
            line = corrupt_wal_record(cluster.wal_path(action.target))
            record["line"] = line
            cluster.spawn(action.target)
        else:
            raise ConfigurationError(f"unknown fault kind {action.kind!r}")
        if action.detail:
            record["detail"] = action.detail
        state.faults_done += 1
        writer.emit(record)
    return subtasks


async def _sampler(
    cluster: ProcessCluster,
    spec: SoakSpec,
    state: _SoakState,
    writer: JsonlWriter,
    t0: float,
    deadline: float,
) -> List[Dict[str, Any]]:
    """One JSONL sample per interval until the deadline."""
    samples: List[Dict[str, Any]] = []
    status_client = ClusterClient(
        "soak-sampler", cluster.addresses, op_timeout=0.5
    )
    while time.monotonic() < deadline and not state.stop:
        await asyncio.sleep(spec.sample_interval)
        ops, latencies, errors, visibility = state.take_interval()
        replicas: Dict[str, Any] = {}
        for name in sorted(cluster.placements):
            if not cluster.alive(name):
                replicas[name] = {"alive": False}
                continue
            try:
                status = await status_client.status(name)
            except Exception:
                replicas[name] = {"alive": True, "status": "unreachable"}
                continue
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
            "t": round(time.monotonic() - t0, 3),
            "ops": ops,
            "throughput": round(ops / spec.sample_interval, 2),
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
    await status_client.close()
    return samples


def _throughput_recovered(
    samples: List[Dict[str, Any]],
    faults: List[Dict[str, Any]],
) -> bool:
    """Did interval throughput come back after the last scheduled fault?

    Gate: the mean throughput of the post-fault tail must reach half the
    pre-fault (or overall) mean.  Loose on purpose -- runner speed
    varies -- but a replica stuck in a crash loop or a cluster wedged by
    a bad resync keeps the tail near zero and fails it.
    """
    if not samples:
        return False
    if not faults:
        return True
    last_fault_t = max(f["t"] for f in faults)
    tail = [s["throughput"] for s in samples if s["t"] > last_fault_t]
    before = [s["throughput"] for s in samples if s["t"] <= last_fault_t]
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
    window_tasks: List[asyncio.Task] = []
    sessions: List[ClusterClient] = []
    statuses: Dict[str, Dict[str, Any]] = {}
    started = time.monotonic()
    with JsonlWriter(report_path) as writer:
        writer.emit(
            {
                "kind": "header",
                "scenario": spec.scenario,
                "replicas": spec.replicas,
                "sessions": spec.sessions,
                "duration": spec.duration,
                "sample_interval": spec.sample_interval,
                "pipeline_window": spec.pipeline_window,
                "think_time": spec.think_time,
                "seed": spec.seed,
                "config": dataclasses.asdict(config),
                "timeline": [dataclasses.asdict(a) for a in timeline],
            }
        )
        try:
            cluster.start_all()
            await cluster.wait_ready()
            t0 = time.monotonic()
            deadline = t0 + spec.duration
            session_tasks = [
                asyncio.ensure_future(
                    _soak_session(
                        f"s{i}", cluster, graph, spec, state, deadline
                    )
                )
                for i in range(spec.sessions)
            ]
            probe_task = asyncio.ensure_future(
                _visibility_probe(cluster, graph, spec, state, deadline)
            )
            fault_task = asyncio.ensure_future(
                _fault_executor(cluster, spec, timeline, state, writer, t0)
            )
            samples = await _sampler(
                cluster, spec, state, writer, t0, deadline
            )
            window_tasks = await fault_task
            sessions = [s for s in await asyncio.gather(*session_tasks)]
            await probe_task
            for task in window_tasks:
                if not task.done():
                    task.cancel()
            # Heal: thaw everything, resurrect the dead, settle, drain.
            for name in sorted(cluster.placements):
                cluster.sigcont(name)
                if not cluster.alive(name):
                    cluster.spawn(name)
            await cluster.wait_ready(timeout=30.0)
            statuses = await cluster.settle(timeout=spec.settle_timeout)
            await cluster.shutdown_all()
        except ConfigurationError as exc:
            state.stop = True
            violations.append(f"soak did not settle: {exc}")
        finally:
            state.stop = True
            cluster.terminate_all()
        duration = time.monotonic() - started
        try:
            audit_violations, _ = audit_cluster(cluster, graph)
            violations.extend(audit_violations)
        except ProtocolError as exc:
            # A corrupt WAL at audit time means a replica never came
            # back to quarantine it -- report, don't crash the harness.
            violations.append(f"audit failed: {exc}")
        fault_records = [r for r in writer.records if r["kind"] == "fault"]
        recovered = _throughput_recovered(samples, fault_records)
        if timeline and not recovered:
            violations.append(
                "throughput did not recover after the last scheduled fault"
            )
        resyncs = sum(
            s.get("metrics", {}).get("resyncs_served", 0)
            for s in statuses.values()
        )
        quarantines = sum(
            s.get("metrics", {}).get("wal_quarantines", 0)
            for s in statuses.values()
        )
        report = SoakReport(
            ok=not violations,
            scenario=spec.scenario,
            violations=violations,
            duration=duration,
            samples=len(samples),
            ops=len(state.latencies_total),
            errors=state.errors,
            sheds=sum(s.stats.sheds for s in sessions),
            retries=sum(s.stats.retries for s in sessions),
            failovers=sum(s.stats.failovers for s in sessions),
            connects=sum(s.stats.connects for s in sessions),
            faults=state.faults_done,
            mean_throughput=(
                len(state.latencies_total) / spec.duration
                if spec.duration > 0
                else 0.0
            ),
            peak_throughput=max(
                (s["throughput"] for s in samples), default=0.0
            ),
            p50=percentile(state.latencies_total, 0.50),
            p95=percentile(state.latencies_total, 0.95),
            p99=percentile(state.latencies_total, 0.99),
            visibility_p95=(
                percentile(state.visibility, 0.95)
                if state.visibility
                else None
            ),
            recovered=recovered,
            resyncs=resyncs,
            quarantines=quarantines,
            report_path=report_path,
        )
        writer.emit({"kind": "summary", **report.to_json()})
    return report


def write_soak_report(report: SoakReport, path: str) -> None:
    """The aggregate summary as one JSON document (JSONL series aside)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
