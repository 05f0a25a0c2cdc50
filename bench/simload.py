"""The two simulator workloads: ``sim-sparse`` and ``sim-dense``.

A run is a sequence of identical **rounds** that lasts ``--seconds``:
each round builds a fresh ``DSMSystem`` with constructor defaults, plays
the same seeded write schedule to quiescence and checks the history.
Wall-clock metrics are medians over the rounds, so a noisy interval
spoils one round, not the run; every round also yields the set-up time
once, which is how ``setup_s`` gets several samples per run.  Seeded
quantities (virtual-time visibility, metadata bytes) must come out
identical in every round -- the run is marked incorrect if they do not.

The benchmark fixes the simulator's time unit at one millisecond: the
default channel delay is then uniform 0.5-2.0 ms per hop and
``visibility_*_ms`` are simulated milliseconds, exact for a seed.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.system import DSMSystem

from . import gen, layers
from .stats import median, percentile
from .trace import Tracer


@dataclass(frozen=True)
class SimSpec:
    topology: str  # "tree" or "dense"
    writes: int  # per round
    rate: float  # writes per simulated millisecond


SPECS = {
    "sim-sparse": SimSpec("tree", 20_000, 1.0),
    "sim-dense": SimSpec("dense", 3_000, 150.0),
}


@dataclass
class Round:
    setup_s: float
    wall_s: float
    cpu_s: float
    audit_s: float
    events: int
    write_ns: List[int]  # sorted
    visibility: List[float]
    metadata_bytes: int
    ok: bool
    system_metrics: Any
    sim_events: int


def inputs(spec: SimSpec, seed: int):
    rng = random.Random(seed)
    if spec.topology == "tree":
        placements = gen.tree_placements(rng)
    else:
        placements = gen.dense_placements(rng)
    return placements, gen.write_schedule(
        rng, placements, spec.rate, count=spec.writes
    )


def play_round(placements: gen.Placements, schedule: List[gen.Write]) -> Round:
    """Build a system, play ``schedule`` to quiescence, check it."""
    fan_out = {x: len(h) - 1 for x, h in gen.holders(placements).items()}
    placed = {r: set(x) for r, x in placements.items()}
    issued_at: Dict[Any, float] = {}
    waiting: Dict[Any, int] = {}
    visibility: List[float] = []

    def on_apply(replica: Any, src: Any, update: Any) -> None:
        uid = update.uid
        left = waiting[uid] - 1
        if left:
            waiting[uid] = left
        else:
            del waiting[uid]
            visibility.append(simulator.now - issued_at.pop(uid))

    start = time.perf_counter()
    system = DSMSystem(placed, seed=7, on_apply=on_apply)
    setup_s = time.perf_counter() - start

    simulator = system.simulator
    clients = {r: system.client(r) for r in placed}
    write_ns: List[int] = []
    clock = time.perf_counter_ns
    pending = iter(schedule)

    def fire(op: gen.Write) -> None:
        began = clock()
        uid = clients[op.replica].write(op.register, op.value)
        write_ns.append(clock() - began)
        issued_at[uid] = simulator.now
        waiting[uid] = fan_out[op.register]
        following = next(pending, None)
        if following is not None:
            simulator.schedule_at(following.due, fire, following)

    first = next(pending)
    simulator.schedule_at(first.due, fire, first)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    system.run()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    audit0 = time.perf_counter()
    report = system.check()
    audit_s = time.perf_counter() - audit0
    metrics = system.metrics()
    ok = (
        report.ok
        and system.quiescent()
        and not waiting
        and metrics.issued == len(schedule)
    )
    return Round(
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        audit_s=audit_s,
        events=len(system.history),
        write_ns=sorted(write_ns),
        visibility=visibility,
        metadata_bytes=metrics.metadata_bytes_sent,
        ok=ok,
        system_metrics=metrics,
        sim_events=simulator.events_executed,
    )


def run(
    name: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """One run: rounds for ``seconds``; returns counts and both metric sets."""
    spec = SPECS[name]
    placements, schedule = inputs(spec, seed)
    writes = len(schedule)
    recorder = tracer or Tracer()  # toggled either way; records if installed
    recorder.enabled = False

    # Untimed warm-up on a throw-away system: first-call costs (imports,
    # code objects warming, allocator growth) are not a round's business.
    warm = schedule[: max(1, writes // 10)]
    play_round(placements, warm)

    # A traced run needs a silent round (the base against which the
    # recording's overhead is priced) and at least one recorded round.
    least = 1 if tracer is None else 2
    rounds: List[Round] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < least or time.perf_counter() < deadline:
        gc.collect()
        recorder.enabled = bool(rounds)
        rounds.append(play_round(placements, schedule))

    first = rounds[0]
    deterministic = all(
        r.visibility == first.visibility
        and r.metadata_bytes == first.metadata_bytes
        for r in rounds
    )
    correct = deterministic and all(r.ok for r in rounds)

    def write_ms(r: Round, fraction: float) -> float:
        return percentile(r.write_ns, fraction) / 1e6

    seen = sorted(first.visibility)
    e2e = {
        "setup_s": median([r.setup_s for r in rounds]),
        "write_ops_per_s": median([writes / r.wall_s for r in rounds]),
        "write_p50_ms": median([write_ms(r, 0.50) for r in rounds]),
        "write_p95_ms": median([write_ms(r, 0.95) for r in rounds]),
        "visibility_p50_ms": percentile(seen, 0.50),
        "visibility_p95_ms": percentile(seen, 0.95),
        "metadata_bytes_per_write": first.metadata_bytes / writes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    per_layer: Dict[str, float] = {}
    if tracer is not None:
        traced = rounds[1:]
        traced_writes = writes * len(traced)
        summary = tracer.summary()
        per_layer = layers.span_metrics(summary, traced_writes)
        last = traced[-1].system_metrics
        applied = max(last.applied_remote, 1)
        cpu_us = sum(r.cpu_s for r in traced) * 1e6 / traced_writes
        per_layer.update(
            {
                "core.timestamp_graph.build_s": layers.total_s(
                    summary, "core.timestamp_graph.build"
                ) / len(traced),
                "core.timestamp.compile_s": layers.total_s(
                    summary, "core.timestamp.compile"
                ) / len(traced),
                "core.timestamp_graph.edges_mean": sum(
                    last.timestamp_counters.values()
                ) / len(last.timestamp_counters),
                "core.timestamp.ready_calls_per_apply": (
                    layers.calls(summary, "core.timestamp.ready")
                    / len(traced) / applied
                ),
                "core.engine.applies_per_write": last.applied_remote / writes,
                "core.engine.pending_high_water": last.pending_high_water,
                "core.engine.apply_wait_vt_mean": last.mean_apply_delay,
                "core.engine.stale_discarded": last.stale_discarded,
                "core.engine.updates_shed": last.updates_shed,
                "network.messages_per_write": last.messages_sent / writes,
                "sim.events_per_write": traced[-1].sim_events / writes,
                "sim.visibility_vt_mean": sum(seen) / len(seen),
                "checker.audit_s": median([r.audit_s for r in rounds]),
                "checker.us_per_event": median(
                    [r.audit_s * 1e6 / r.events for r in rounds]
                ),
                "bench.cpu_us_per_write": cpu_us,
                "bench.unattributed_us_per_write": (
                    cpu_us - layers.attributed_us(summary) / traced_writes
                ),
                "bench.trace_overhead_ratio": (
                    cpu_us / (first.cpu_s * 1e6 / writes)
                ),
            }
        )

    return {
        "correct": correct,
        "attempted": writes * len(rounds),
        "failed": 0,
        "e2e": e2e,
        "per_layer": per_layer,
        "rounds": len(rounds),
    }
