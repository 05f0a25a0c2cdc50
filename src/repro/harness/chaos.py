"""Chaos campaigns: seeded fault sweeps with safety/liveness assertions.

A *trial* runs one workload on a :class:`~repro.core.system.DSMSystem`
whose channels drop and duplicate messages under a seeded
:class:`~repro.network.faults.FaultPlan`, with replica crash/recovery
events injected mid-run.  The trial asserts the paper's guarantees under
the weakened fault model:

* **safety throughout** -- replica-centric causal consistency is checked
  at evenly spaced checkpoints while faults are still active, and again
  at the end;
* **liveness after the fault horizon** -- once the plan stops injecting
  faults and every crashed replica has recovered, the reliable-delivery
  layer drains: the run quiesces and every update reaches every replica
  that stores its register;
* **conservation** -- the transport's physical/logical accounting
  invariants hold (:meth:`NetworkStats.assert_consistent`);
* **bounded memory throughout** -- when the spec caps the pending
  buffers or retransmit logs, their high-water marks never exceed the
  caps at any point of the run;
* **store convergence at quiescence** -- the checker replays events,
  not values, so each trial additionally audits the final stores
  (:func:`store_divergence`): every replica storing a register holds
  the causally-last written value, and no value debt is left unpaid.

A *campaign* sweeps a trial across many seeds.  Everything is derived
deterministically from the trial seed (fault decisions, crash schedule,
workload), so any failure line like ``seed=17`` is replayable verbatim
with :func:`run_chaos_trial` -- and with ``python -m repro chaos
--scenario ... --seed N --verbose``, which replays the single trial and
prints its event timeline.

Robustness scenarios
--------------------
Beyond the classic loss/dup/crash sweep, a spec's ``timeline`` (a tuple
of :class:`~repro.harness.timeline.FaultAction`) may add ``partition``
windows (every physical copy between the target and the rest is dropped
for the whole episode) and ``slow`` windows (a replica stops applying
while its buffers fill).  Combined with finite ``pending_cap`` /
``unacked_cap`` these scenarios exceed what retransmission alone can
recover -- the truncated retransmit logs have lost data for good -- and
are only passable with the anti-entropy layer (``sync=True``,
:class:`repro.sync.SyncManager`) enabled.  :func:`long_partition_spec`
and :func:`slow_replica_spec` are the tuned presets the CI jobs run both
ways: sync off must fail, sync on must pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.causality import History
from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem
from repro.errors import ConfigurationError, ProtocolError
from repro.harness.timeline import (
    WINDOWED,
    FaultAction,
    derive_crashes,
    downtime,
    install_faults,
)
from repro.network.faults import ChannelFaults, FaultPlan
from repro.types import RegisterName, ReplicaId, UpdateId
from repro.workloads.operations import uniform_writes
from repro.workloads.topologies import fig5_placements


# ----------------------------------------------------------------------
# Specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TimelineEvent:
    """One annotated occurrence in a trial's replay timeline."""

    time: float
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"t={self.time:9.2f}  {self.kind:<10} {self.detail}"


@dataclass(frozen=True)
class ChaosSpec:
    """Parameters of one chaos trial (everything except the seed).

    Every trial runs ``timeline`` plus ``crash_count`` ``kill``/``restart``
    pairs derived from the trial seed (for a fixed crash schedule put the
    pairs in ``timeline`` and set ``crash_count=0``).  ``horizon`` is the
    fault horizon: loss/duplication stop there, and derived crash windows
    are placed well inside it.

    The robustness features (``partition``/``slow`` windows in the
    timeline, ``pending_cap``, ``gap_threshold``, ``unacked_cap``,
    ``sync``) all default off; a spec that leaves them off runs the exact
    classic PR-1 trial, event for event.  With any of them on, the trial
    runs in *bounded* mode: caps are asserted as invariants, and the
    post-horizon drain runs under an event budget (``drain_budget``)
    because a system that lost data to a truncated log never quiesces on
    its own -- that non-quiescence is the failure the sync layer exists to
    prevent.
    """

    placements: Union[ShareGraph, Mapping[ReplicaId, AbstractSet[RegisterName]]]
    loss: float = 0.2
    duplication: float = 0.1
    writes: int = 30
    write_rate: float = 1.0
    horizon: float = 300.0
    crash_count: int = 2
    timeline: Tuple[FaultAction, ...] = ()
    checkpoints: int = 4
    pending_cap: Optional[int] = None
    gap_threshold: Optional[int] = None
    unacked_cap: Optional[int] = None
    sync: bool = False
    sync_delay: float = 1.0
    drain_budget: int = 400_000

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigurationError("need horizon > 0")
        if self.crash_count < 0 or self.checkpoints < 0:
            raise ConfigurationError("need crash_count, checkpoints >= 0")
        if self.pending_cap is not None and self.pending_cap < 1:
            raise ConfigurationError("need pending_cap >= 1")
        if self.gap_threshold is not None and self.gap_threshold < 1:
            raise ConfigurationError("need gap_threshold >= 1")
        if self.drain_budget < 1:
            raise ConfigurationError("need drain_budget >= 1")

    @property
    def bounded(self) -> bool:
        """True when any robustness feature changes the trial shape."""
        return bool(
            any(a.kind in WINDOWED for a in self.timeline)
            or self.sync
            or self.pending_cap is not None
            or self.unacked_cap is not None
        )

    def graph(self) -> ShareGraph:
        p = self.placements
        return p if isinstance(p, ShareGraph) else ShareGraph(p)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialResult:
    """Outcome of one seeded chaos trial."""

    seed: int
    failures: Tuple[str, ...]
    writes_issued: int
    writes_skipped: int  # scheduled at a replica that was down
    timeline: Tuple[FaultAction, ...]  # as run, derived crashes included
    checkpoints_checked: int
    messages_dropped: int
    duplicates_injected: int
    retransmits: int
    messages_delivered: int
    # Robustness counters (zero in classic trials).
    syncs: int = 0
    updates_shed: int = 0
    stale_discarded: int = 0
    snapshot_bytes: int = 0
    pending_high_water: int = 0
    unacked_high_water: int = 0
    log_truncated: int = 0
    log_compacted: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def crashes(self) -> Tuple[FaultAction, ...]:
        return tuple(a for a in self.timeline if a.kind == "kill")

    def __str__(self) -> str:
        verdict = "ok" if self.ok else "FAIL " + "; ".join(self.failures)
        line = (
            f"seed={self.seed}: {verdict} "
            f"(writes={self.writes_issued}, crashes={len(self.crashes)}, "
            f"dropped={self.messages_dropped}, dup={self.duplicates_injected}, "
            f"retrans={self.retransmits})"
        )
        if self.syncs or self.updates_shed or self.log_truncated:
            line += (
                f" [syncs={self.syncs}, shed={self.updates_shed}, "
                f"stale={self.stale_discarded}, "
                f"pending_hw={self.pending_high_water}, "
                f"unacked_hw={self.unacked_high_water}, "
                f"truncated={self.log_truncated}, "
                f"compacted={self.log_compacted}]"
            )
        return line


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate of one chaos campaign."""

    spec: ChaosSpec
    trials: Tuple[TrialResult, ...]

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.trials)

    @property
    def failed_seeds(self) -> Tuple[int, ...]:
        return tuple(t.seed for t in self.trials if not t.ok)

    def summary(self) -> str:
        lines = [
            f"chaos campaign: {len(self.trials)} trials, "
            f"loss={self.spec.loss}, dup={self.spec.duplication}, "
            f"crashes/trial={self.spec.crash_count}, "
            f"horizon={self.spec.horizon}",
        ]
        lines.extend(f"  {t}" for t in self.trials)
        if self.ok:
            lines.append(f"all {len(self.trials)} trials passed")
        else:
            lines.append(f"FAILED seeds: {list(self.failed_seeds)}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def causal_maxima(history: History, writes: Sequence[UpdateId]) -> List[UpdateId]:
    """The causally-maximal updates among ``writes``.

    ``writes`` must be in issue order (the order ``History.all_updates``
    yields), which is a linear extension of causality: an update enters a
    replica's causal past only after it was issued.  A single frontier
    scan therefore suffices -- each new write evicts the frontier members
    in its past and can never itself be in the past of an earlier write --
    and replaces the quadratic all-pairs comparison, which dominated the
    audit on hot registers with thousands of writes.
    """
    frontier: List[UpdateId] = []
    for w in writes:
        if frontier:
            frontier = [f for f in frontier if not history.happened_before(f, w)]
        frontier.append(w)
    return frontier


def store_divergence(
    system: DSMSystem,
    values_by_uid: Optional[Mapping[UpdateId, object]] = None,
    registers: Optional[AbstractSet[RegisterName]] = None,
) -> List[str]:
    """Final-state store audit the history replay cannot perform.

    ``system.check`` replays issue/apply *events*; it never sees register
    values, so a transfer that records an update as applied without ever
    obtaining its value (a lost value debt) looks perfectly consistent to
    it.  This audit closes that blind spot at quiescence:

    * no replica may end with an outstanding value debt, and
    * every replica storing a register must hold the value of its
      causally-last write -- or, when the latest writes are concurrent
      (plain causal memory does not converge them), the value of *some*
      maximal write.

    ``values_by_uid`` maps update ids to the written values (the driver
    knows them; the history does not).  Registers whose maximal writes
    are not all in the map get only the debt check.  ``registers``
    restricts the audit to a subset (the sharding layer excludes its
    per-group alias copies, whose stores are legitimately written by
    overlay forwarding the history never sees, and audits them with its
    own logical-register rule instead); ``None`` audits everything.
    """
    history, graph = system.history, system.graph
    values = values_by_uid or {}
    audited = graph.registers if registers is None else registers
    out: List[str] = []
    by_register: dict = {}
    for uid in history.all_updates():
        by_register.setdefault(history.updates[uid].register, []).append(uid)
    for register in sorted(audited, key=str):
        writes = by_register.get(register)
        if not writes:
            continue
        maxima = causal_maxima(history, writes)
        allowed = (
            {values[u] for u in maxima}
            if all(u in values for u in maxima)
            else None
        )
        for rid in sorted(graph.replicas_storing(register), key=str):
            replica = system.replicas[rid]
            if replica.crashed or register not in replica.store:
                continue
            debt = replica.value_debt.get(register)
            if debt is not None:
                out.append(
                    f"replica {rid!r} ended with an unpaid value debt on "
                    f"{register!r} ({debt})"
                )
                continue
            if allowed is None:
                continue
            actual = replica.store[register]
            if len(maxima) == 1:
                expected = next(iter(allowed))
                if actual != expected:
                    out.append(
                        f"store diverged: replica {rid!r} holds "
                        f"{register!r}={actual!r} but the causally-last "
                        f"write {maxima[0]} wrote {expected!r}"
                    )
            elif actual not in allowed:
                out.append(
                    f"store diverged: replica {rid!r} holds "
                    f"{register!r}={actual!r}, not the value of any "
                    f"maximal concurrent write"
                )
    return out


def run_chaos_trial(
    spec: ChaosSpec,
    seed: int,
    timeline: Optional[List[TimelineEvent]] = None,
) -> TrialResult:
    """Run one fully deterministic chaos trial.

    The same ``(spec, seed)`` pair always produces the same trial: the
    fault plan, crash schedule, workload, and delay sampling are all
    seeded from it.  ``timeline``, when given, collects an annotated
    replay of the trial's fault and recovery events (the ``--verbose``
    view of the CLI); recording is outside the simulation, so a traced
    trial is event-identical to an untraced one.
    """
    graph = spec.graph()
    faults = tuple(spec.timeline) + derive_crashes(
        graph.replicas, spec.crash_count, spec.horizon, seed
    )
    plan = FaultPlan(
        seed=seed,
        default=ChannelFaults(loss=spec.loss, duplication=spec.duplication),
        horizon=spec.horizon,
    )
    system = DSMSystem(
        graph, seed=seed, fault_plan=plan, unacked_cap=spec.unacked_cap
    )

    def note(kind: str, detail: str, at: Optional[float] = None) -> None:
        if timeline is not None:
            now = system.simulator.now if at is None else at
            timeline.append(TimelineEvent(now, kind, detail))

    manager = None
    if spec.sync:
        from repro.sync import SyncManager

        manager = SyncManager(
            system,
            pending_cap=spec.pending_cap,
            gap_threshold=spec.gap_threshold,
            sync_delay=spec.sync_delay,
            trace=(
                (lambda now, kind, detail: note(kind, detail, at=now))
                if timeline is not None
                else None
            ),
        )
    elif spec.pending_cap is not None or spec.gap_threshold is not None:
        # Bounded buffers *without* recovery: shedding and gap detection
        # run, but escalation goes nowhere.  This is the ablation the
        # fail-without-sync scenarios exercise.
        for replica in system.replicas.values():
            replica.pending_cap = spec.pending_cap
            replica.gap_threshold = spec.gap_threshold
            replica.on_sync_needed = lambda rid, reason: None

    stream = uniform_writes(
        graph, spec.writes, rate=spec.write_rate, seed=seed + 1
    )
    issued = skipped = 0
    issued_ops: dict = {}  # per replica, in schedule (= issue) order
    down = downtime(faults)
    for op in stream:
        if any(a <= op.time < b for a, b in down.get(op.replica, ())):
            skipped += 1  # a crashed replica serves no clients
            continue
        system.schedule_write(op.time, op.replica, op.register, op.value)
        issued_ops.setdefault(op.replica, []).append(op)
        issued += 1
    install_faults(system, faults)
    for action in faults:
        note("schedule", str(action), at=0.0)

    failures: List[str] = []
    fault_end = max([spec.horizon] + [a.end for a in faults])
    # Safety checkpoints while faults are still active.
    checked = 0
    for k in range(1, spec.checkpoints + 1):
        at = fault_end * k / (spec.checkpoints + 1)
        system.run(until=at)
        mid = system.check(require_liveness=False)
        checked += 1
        note(
            "checkpoint",
            f"safety {'ok' if not (mid.safety or mid.session) else 'VIOLATED'}"
            f" ({mid.applies_checked} applies checked)",
        )
        if mid.safety or mid.session:
            failures.append(
                f"safety violated at checkpoint t={at:.1f}: "
                f"{(mid.safety + mid.session)[0]}"
            )
            break
    # Drain: after the horizon no faults are injected and every replica
    # is up, so the ARQ layer must deliver everything.  A bounded trial
    # may have truncated retransmit logs whose survivors retransmit
    # forever without ever being deliverable -- its agenda never dries --
    # so the drain runs under an event budget, with a final reconcile
    # sweep for the sync layer first.
    if spec.bounded:
        system.run(until=fault_end)
        if manager is not None:
            installed = manager.reconcile()
            note("reconcile", f"{installed} updates installed")
        system.run(max_events=spec.drain_budget)
    else:
        system.run()
    if not system.quiescent():
        failures.append("did not quiesce after the fault horizon")
    final = system.check(require_liveness=True)
    if not final.ok:
        first = (final.safety + final.session + final.liveness)[0]
        failures.append(f"final check failed: {first}")
    try:
        system.network.stats.assert_consistent()
    except ProtocolError as exc:
        failures.append(f"stats inconsistent: {exc}")
    # Actual store convergence: the checker replays events, not values,
    # so a value-losing transfer would pass it silently.  The driver
    # knows every written value; compare the final stores against the
    # causally-last writes and require every value debt settled.
    values_by_uid: dict = {}
    for rid, ops in issued_ops.items():
        uids = system.history.updates_by(rid)
        if len(uids) == len(ops):
            values_by_uid.update(zip(uids, (op.value for op in ops)))
    failures.extend(store_divergence(system, values_by_uid))
    stats = system.network.stats
    metrics = system.metrics()
    # Bounded memory throughout: the high-water marks are recorded at
    # every enqueue/send, so comparing them against the caps proves the
    # bound held at all times, not just at the end.
    if (
        spec.pending_cap is not None
        and metrics.pending_high_water > spec.pending_cap
    ):
        failures.append(
            f"pending buffer exceeded its cap: high water "
            f"{metrics.pending_high_water} > {spec.pending_cap}"
        )
    if (
        spec.unacked_cap is not None
        and metrics.unacked_high_water > spec.unacked_cap
    ):
        failures.append(
            f"retransmit log exceeded its cap: high water "
            f"{metrics.unacked_high_water} > {spec.unacked_cap}"
        )
    note(
        "verdict",
        "ok" if not failures else "FAIL " + "; ".join(failures),
    )
    return TrialResult(
        seed=seed,
        failures=tuple(failures),
        writes_issued=issued,
        writes_skipped=skipped,
        timeline=faults,
        checkpoints_checked=checked,
        messages_dropped=stats.messages_dropped,
        duplicates_injected=stats.duplicates_injected,
        retransmits=stats.retransmits,
        messages_delivered=stats.messages_delivered,
        syncs=metrics.syncs,
        updates_shed=metrics.updates_shed,
        stale_discarded=metrics.stale_discarded,
        snapshot_bytes=manager.stats.snapshot_bytes if manager else 0,
        pending_high_water=metrics.pending_high_water,
        unacked_high_water=metrics.unacked_high_water,
        log_truncated=metrics.retransmit_log_truncated,
        log_compacted=metrics.retransmit_log_compacted,
    )


def run_chaos_campaign(
    spec: ChaosSpec, seeds: Sequence[int] = tuple(range(20))
) -> CampaignReport:
    """Sweep :func:`run_chaos_trial` across ``seeds``."""
    return CampaignReport(
        spec=spec, trials=tuple(run_chaos_trial(spec, s) for s in seeds)
    )


# ----------------------------------------------------------------------
# Tuned robustness presets (CI runs these with sync on AND off)
# ----------------------------------------------------------------------
def long_partition_spec(sync: bool = True) -> ChaosSpec:
    """A long two-sided blackout that overflows the retransmit caps.

    Replicas {1, 2} and {3, 4} of the Figure 5 topology are split for
    most of the write phase; every cross-side physical copy is dropped.
    The cross-side retransmit logs exceed ``unacked_cap`` and truncate,
    so after the heal the dropped prefixes exist *only* in the far side's
    applied state.  Without sync the survivors retransmit forever against
    an unfillable gap (no quiescence, liveness violations); with sync the
    gap signal triggers a state transfer and the run converges.
    """
    return ChaosSpec(
        placements=fig5_placements(),
        loss=0.05,
        duplication=0.05,
        writes=120,
        write_rate=1.0,
        horizon=300.0,
        crash_count=0,
        checkpoints=3,
        timeline=(FaultAction(30.0, "partition", (1, 2), duration=190.0),),
        pending_cap=16,
        gap_threshold=3,
        unacked_cap=4,
        sync=sync,
    )


def slow_replica_spec(sync: bool = True) -> ChaosSpec:
    """A replica that stops applying while its peers keep writing.

    Replica 4 (the highest-degree node of Figure 5) pauses for a long
    window.  Its pending buffer hits ``pending_cap`` and is shed
    (rolling the channel state back), its senders' unacked logs grow past
    ``unacked_cap`` and truncate -- at which point retransmission alone
    can no longer reconstruct the prefix.  Sync escalation (overflow
    signal) recovers it; without sync the trial fails.
    """
    return ChaosSpec(
        placements=fig5_placements(),
        loss=0.02,
        duplication=0.02,
        writes=100,
        write_rate=1.0,
        horizon=300.0,
        crash_count=0,
        checkpoints=3,
        timeline=(FaultAction(20.0, "slow", 4, duration=160.0),),
        pending_cap=10,
        gap_threshold=3,
        unacked_cap=4,
        sync=sync,
    )


SCENARIOS = {
    "long-partition": long_partition_spec,
    "slow-replica": slow_replica_spec,
}
