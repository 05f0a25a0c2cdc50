"""One fault timeline: what breaks when, as plain data, and the two
executors that make it happen.

The paper assumes reliable channels and replicas that never crash, so
every claim this repository makes about Definition 2 *under faults*
rests on its own harnesses.  They all say what breaks when in one
vocabulary -- a tuple of :class:`FaultAction` -- which is plain data: it
is generated from a seed, validated, written into a report header,
read back and replayed.  :func:`install_faults` performs a timeline in
virtual time on a simulated system, :class:`ProcessFaults` on operating
-system processes; each refuses a kind it cannot perform
(``docs/architecture.md`` has the kind x executor table).
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.share_graph import ShareGraph
from repro.errors import ConfigurationError, WireDecodeError
from repro.network.partitions import Partition, split_channels
from repro.tcp.client import ClusterClient

if TYPE_CHECKING:  # named in annotations only
    from repro.core.system import DSMSystem
    from repro.tcp.cluster import ProcessCluster

WINDOWED = frozenset({"partition", "slow"})
SIM_KINDS = frozenset({"kill", "restart"}) | WINDOWED
PROCESS_KINDS = SIM_KINDS | {"corrupt_wal", "reset"}


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: ``kind`` happens to ``target`` at ``time``
    (virtual time in the simulator, seconds from the start of the load
    phase for processes).

    ``kind`` is ``"kill"`` (down until a later ``"restart"``),
    ``"restart"`` (back over its durable state; of a running target:
    kill and respawn in one step), ``"partition"`` or ``"slow"`` (a
    window of ``duration``: cut off from everyone else / falling behind;
    a simulator partition may name one side as a tuple of ids), and for
    processes only ``"corrupt_wal"`` (kill, flip one committed WAL byte,
    respawn) and ``"reset"`` (abort the link to the peer ``detail``
    names).  What each executor does for each kind is tabulated in
    ``docs/architecture.md``, "Fault model".  Elsewhere ``detail`` is a
    label carried into reports.
    """

    time: float
    kind: str
    target: Any
    duration: float = 0.0
    detail: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.target, list):  # a group read back from JSON
            object.__setattr__(self, "target", tuple(self.target))

    @property
    def end(self) -> float:
        return self.time + self.duration

    def __str__(self) -> str:
        if self.kind in WINDOWED:
            return (
                f"{self.kind} {self.target!r} during "
                f"[{self.time:.1f}, {self.end:.1f})"
            )
        return f"{self.kind} {self.target!r} at t={self.time:.1f}"


Timeline = Tuple[FaultAction, ...]


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def downtime(
    timeline: Iterable[FaultAction],
) -> Dict[Any, List[Tuple[float, float]]]:
    """Per-target ``[kill, restart)`` windows, checked.

    A ``restart`` must come strictly after the ``kill`` it ends, and a
    target that is down cannot be killed again.  A ``restart`` of a
    target that is up is a kill and respawn in one step (an empty
    window); a ``kill`` never followed by a ``restart`` is down for good.
    """
    windows: Dict[Any, List[Tuple[float, float]]] = {}
    down: Dict[Any, float] = {}
    for action in sorted(timeline, key=lambda a: a.time):
        if action.kind == "kill":
            if action.target in down:
                raise ConfigurationError(
                    f"{action}: the target is already down since "
                    f"t={down[action.target]}"
                )
            down[action.target] = action.time
        elif action.kind == "restart":
            start = down.pop(action.target, None)
            if start is None:
                start = action.time  # a bounce of a running target
            elif not start < action.time:
                raise ConfigurationError(
                    f"{action} must come strictly after the kill at "
                    f"t={start}"
                )
            windows.setdefault(action.target, []).append(
                (start, action.time)
            )
    for target, start in down.items():
        windows.setdefault(target, []).append((start, math.inf))
    return windows


def _checked(
    timeline: Iterable[FaultAction], performs: FrozenSet[str], executor: str
) -> Timeline:
    """``timeline`` in time order, or why ``executor`` cannot perform it
    (pairing of kills and restarts aside: that is :func:`downtime`)."""
    ordered = tuple(sorted(timeline, key=lambda a: a.time))
    for action in ordered:
        if action.kind not in performs:
            raise ConfigurationError(
                f"the {executor} executor cannot perform {action.kind!r} "
                f"(it performs {sorted(performs)})"
            )
        if action.kind in WINDOWED and not action.duration > 0:
            raise ConfigurationError(f"{action}: a window needs duration > 0")
    return ordered


# ----------------------------------------------------------------------
# Seeded generators
# ----------------------------------------------------------------------
def derive_crashes(
    targets: Sequence[Any], count: int, horizon: float, seed: int
) -> Timeline:
    """``count`` seeded ``kill``/``restart`` pairs for one trial seed.

    Crashes land in the middle of the fault window and every target is
    back up by ``0.9 * horizon``, so a liveness assertion after the
    horizon is meaningful.  Downtimes of one target never overlap.
    """
    rng = random.Random(seed * 2654435761 + 42)
    targets = list(targets)
    outages: List[Tuple[float, Any, float]] = []
    for _ in range(count):
        for _attempt in range(50):
            target = rng.choice(targets)
            start = rng.uniform(0.2 * horizon, 0.6 * horizon)
            outage = rng.uniform(0.05 * horizon, 0.25 * horizon)
            end = min(start + outage, 0.9 * horizon)
            if not any(
                t == target and s < end and start < e for s, t, e in outages
            ):
                outages.append((start, target, end))
                break
    actions = [FaultAction(s, "kill", t) for s, t, _ in outages]
    actions += [FaultAction(e, "restart", t) for _, t, e in outages]
    return tuple(sorted(actions, key=lambda a: a.time))


def rolling_restarts(
    names: Sequence[str],
    rng: random.Random,
    duration: float,
    step: float,
    stride: int,
    detail: str,
    partition_victim: Optional[str] = None,
) -> Timeline:
    """Restart waves ``step`` seconds apart (jittered), ``stride`` names
    apart, confined to the first 70% of ``duration``, plus one partition
    window mid-way on runs of 30 s and more -- on ``partition_victim``,
    or on the next victim of the rotation."""
    horizon = duration * 0.7
    actions: List[FaultAction] = []
    t = step
    index = rng.randrange(len(names))
    while t < horizon:
        victim = names[index % len(names)]
        actions.append(
            FaultAction(round(t, 2), "restart", victim, detail=detail)
        )
        index += stride
        t += step * (0.75 + rng.random() * 0.5)
    if duration >= 30:
        actions.append(
            FaultAction(
                round(horizon * 0.5, 2),
                "partition",
                partition_victim or names[index % len(names)],
                duration=min(4.0, duration * 0.08),
            )
        )
    return tuple(sorted(actions, key=lambda a: a.time))


def burst_timeline(
    placements: Mapping[str, Iterable[str]], kills: int, resets: int, seed: int
) -> Timeline:
    """``kills`` restarts and ``resets`` link resets (each on a link to a
    sharing neighbour) in a shuffled order, 0.1-0.3 s apart, each restart
    followed by a 0.6 s cooldown for the victim to come back before the
    next fault."""
    rng = random.Random(f"{seed}:faults")
    graph = ShareGraph(placements)
    replicas = sorted(placements)
    planned = ["restart"] * kills + ["reset"] * resets
    rng.shuffle(planned)
    actions: List[FaultAction] = []
    t = 0.0
    for kind in planned:
        t += 0.1 + rng.random() * 0.2
        victim = rng.choice(replicas)
        if kind == "restart":
            actions.append(FaultAction(round(t, 3), kind, victim))
            t += 0.6
            continue
        peers = sorted(str(p) for p in graph.neighbors(victim))
        if peers:
            peer = rng.choice(peers)
            actions.append(FaultAction(round(t, 3), kind, victim, detail=peer))
    return tuple(actions)


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
# Executor 1: virtual time
# ----------------------------------------------------------------------
def install_faults(
    system: "DSMSystem", timeline: Iterable[FaultAction]
) -> None:
    """Schedule ``timeline`` on a simulated system (built with a
    ``fault_plan``: crashes need its ARQ layer, partitions its blackouts).

    A ``partition`` drops every physical copy between ``target`` and the
    rest for the window; a ``slow`` target keeps receiving and serving
    writes but applies nothing until the window ends.
    """
    ordered = _checked(timeline, SIM_KINDS, "virtual-time")
    plan = getattr(system.network, "plan", None)
    if ordered and plan is None:
        raise ConfigurationError(
            "faults need a DSMSystem built with a fault_plan"
        )
    for target, windows in downtime(ordered).items():
        for start, end in windows:
            system.schedule_crash(start, target)
            if end != math.inf:
                system.schedule_recover(end, target)
    everyone = set(system.graph.replicas)
    for action in ordered:
        if action.kind == "slow":
            replica = system.replica(action.target)
            system.simulator.schedule_at(action.time, replica.pause)
            system.simulator.schedule_at(action.end, replica.resume)
        elif action.kind == "partition":
            group = action.target
            side = set(group) if isinstance(group, tuple) else {group}
            cut = split_channels(side, everyone - side)
            plan.blackouts += (Partition(action.time, action.end, cut),)


# ----------------------------------------------------------------------
# Executor 2: operating-system processes
# ----------------------------------------------------------------------
class ProcessFaults:
    """Perform a timeline on a :class:`~repro.tcp.cluster.ProcessCluster`.

    :meth:`run` fires each action at its offset from ``t0`` and hands
    ``emit`` one ``{"kind": "fault", ...}`` record per action;
    :meth:`heal` undoes whatever is still broken (thaws the stopped,
    respawns the dead).  Windowed faults run as subtasks so the schedule
    never blocks on a window closing.
    """

    def __init__(
        self,
        cluster: "ProcessCluster",
        timeline: Iterable[FaultAction],
        emit: Callable[[Dict[str, Any]], None],
    ) -> None:
        self.cluster = cluster
        self.timeline = _checked(timeline, PROCESS_KINDS, "OS-process")
        self.emit = emit
        self._windows: List[asyncio.Future] = []
        downtime(self.timeline)
        for action in self.timeline:
            if action.target not in cluster.placements:
                raise ConfigurationError(f"{action}: no such replica process")

    async def run(self, t0: float) -> None:
        cluster = self.cluster
        admin = ClusterClient("fault-admin", cluster.addresses, op_timeout=1.0)
        try:
            for action in self.timeline:
                delay = t0 + action.time - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
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
                elif action.kind in WINDOWED:
                    record["duration"] = action.duration
                    self._windows.append(
                        asyncio.ensure_future(self._window(action))
                    )
                elif action.kind == "corrupt_wal":
                    cluster.sigkill(action.target)
                    record["line"] = corrupt_wal_record(
                        cluster.wal_path(action.target)
                    )
                    cluster.spawn(action.target)
                else:  # reset: a fault that misses (victim mid-restart)
                    # is recorded as failed, not raised
                    try:
                        await admin.admin(
                            action.target,
                            {"op": "reset_link", "peer": action.detail},
                        )
                    except (
                        OSError,
                        EOFError,
                        asyncio.TimeoutError,
                        WireDecodeError,
                    ) as exc:
                        record["failed"] = type(exc).__name__
                if action.detail:
                    record["detail"] = action.detail
                self.emit(record)
        finally:
            await admin.close()

    async def _window(self, action: FaultAction) -> None:
        cluster, target = self.cluster, action.target
        try:
            if action.kind == "partition":
                cluster.sigstop(target)
                await asyncio.sleep(action.duration)
                return
            # slow: duty-cycle stalls shorter than the heartbeat timeout,
            # so the replica degrades without being declared dead
            stall = max(0.05, min(cluster.config.heartbeat_timeout * 0.4, 0.4))
            until = time.monotonic() + action.duration
            while time.monotonic() < until:
                cluster.sigstop(target)
                await asyncio.sleep(stall)
                cluster.sigcont(target)
                await asyncio.sleep(stall)
        finally:
            cluster.sigcont(target)

    def heal(self) -> None:
        for window in self._windows:
            window.cancel()
        for name in sorted(self.cluster.placements):
            self.cluster.sigcont(name)
            if not self.cluster.alive(name):
                self.cluster.spawn(name)
