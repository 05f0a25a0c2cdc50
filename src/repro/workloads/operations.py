"""Operation streams: scheduled client writes for experiments.

An :class:`OperationStream` is a deterministic, pre-generated list of
timed writes.  Generators take the share graph so they only emit writes a
replica can actually serve (``x in X_i``), and they never write to dummy
registers (the system wiring rejects that, matching Appendix D: "no client
will send a request ... for an operation on a dummy register").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem
from repro.errors import ConfigurationError
from repro.types import RegisterName, ReplicaId


@dataclass(frozen=True)
class WriteOp:
    """One scheduled client write."""

    time: float
    replica: ReplicaId
    register: RegisterName
    value: object

    def __str__(self) -> str:
        return f"@{self.time:.3f} w({self.replica},{self.register}={self.value!r})"


@dataclass(frozen=True)
class OperationStream:
    """An immutable, time-ordered sequence of writes."""

    ops: Tuple[WriteOp, ...]

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    @property
    def duration(self) -> float:
        return self.ops[-1].time if self.ops else 0.0


def uniform_writes(
    graph: ShareGraph,
    total_writes: int,
    rate: float = 1.0,
    seed: int = 0,
    writable: Optional[Mapping[ReplicaId, AbstractSet[RegisterName]]] = None,
) -> OperationStream:
    """Poisson-ish uniform workload: each write picks a random replica and
    one of its writable registers; inter-arrival times are exponential
    with the given ``rate``.

    ``writable`` restricts the register choices per replica (used to avoid
    dummy registers); defaults to the full placement.
    """
    if total_writes < 0 or rate <= 0:
        raise ConfigurationError("need total_writes >= 0 and rate > 0")
    rng = random.Random(seed)
    choices: Dict[ReplicaId, List[RegisterName]] = {}
    for r in graph.replicas:
        allowed = (
            writable[r] if writable is not None and r in writable
            else graph.registers_at(r)
        )
        regs = sorted(allowed, key=lambda v: (str(type(v)), repr(v)))
        if regs:
            choices[r] = regs
    if not choices:
        raise ConfigurationError("no replica has a writable register")
    replicas = sorted(choices, key=lambda v: (str(type(v)), repr(v)))
    ops: List[WriteOp] = []
    clock = 0.0
    for n in range(total_writes):
        clock += rng.expovariate(rate)
        replica = rng.choice(replicas)
        register = rng.choice(choices[replica])
        ops.append(WriteOp(clock, replica, register, f"v{n}"))
    return OperationStream(tuple(ops))


def zipf_writes(
    graph: ShareGraph,
    total_writes: int,
    rate: float = 1.0,
    skew: float = 1.2,
    seed: int = 0,
) -> OperationStream:
    """Skewed workload: register popularity follows a Zipf-like law.

    Registers are ranked deterministically (sorted order); register of
    rank ``k`` is chosen with probability proportional to ``k**-skew``.
    The writer is a uniformly random holder of the chosen register.
    Models the hot-key behaviour of real stores, which concentrates
    updates on few share-graph edges.
    """
    if total_writes < 0 or rate <= 0 or skew <= 0:
        raise ConfigurationError(
            "need total_writes >= 0, rate > 0 and skew > 0"
        )
    rng = random.Random(seed)
    registers = sorted(graph.registers, key=lambda v: (str(type(v)), repr(v)))
    if not registers:
        raise ConfigurationError("share graph has no registers")
    weights = [1.0 / (rank**skew) for rank in range(1, len(registers) + 1)]
    ops: List[WriteOp] = []
    clock = 0.0
    for n in range(total_writes):
        clock += rng.expovariate(rate)
        register = rng.choices(registers, weights=weights, k=1)[0]
        holders = sorted(
            graph.replicas_storing(register),
            key=lambda v: (str(type(v)), repr(v)),
        )
        ops.append(WriteOp(clock, rng.choice(holders), register, f"z{n}"))
    return OperationStream(tuple(ops))


def run_workload(
    system: DSMSystem,
    stream: OperationStream,
    settle: Optional[float] = None,
    max_events: Optional[int] = None,
) -> None:
    """Schedule every write of ``stream`` into ``system`` and run it.

    The run continues past the last write until the agenda drains (all
    messages delivered), or until ``settle`` extra virtual time elapses.
    """
    for op in stream:
        system.schedule_write(op.time, op.replica, op.register, op.value)
    until = None if settle is None else stream.duration + settle
    system.run(until=until, max_events=max_events)
