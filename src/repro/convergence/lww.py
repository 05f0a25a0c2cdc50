"""Last-writer-wins registers over the causal core.

Tags are ``(lamport, writer, seq)``: a per-replica Lamport clock that
advances on every local write and on every applied remote write, so a
causally later write always carries a strictly larger tag (LWW refines
causal order), and concurrent writes are ordered deterministically by
``(lamport, writer)``.  Replicas resolve conflicts with ``max`` via the
core's ``value_merge`` hook; delivery order is still governed by
predicate J, so causal consistency is inherited, and convergence is the
new property: at quiescence all copies of a register hold the same
tagged value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.core.replica import Replica
from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem
from repro.network.delays import DelayModel
from repro.types import RegisterName, ReplicaId, Update, UpdateId


@dataclass(frozen=True, order=True)
class Tagged:
    """A value with its LWW tag (ordering is the conflict resolution)."""

    lamport: int
    writer_key: str
    seq: int
    value: Any = field(compare=False)


def _merge(old: Any, new: Any) -> Any:
    if old is None:
        return new
    return max(old, new)


class LWWSystem:
    """A causally consistent, convergent (causal+) register store.

    Wraps :class:`~repro.core.system.DSMSystem`; the public read/write
    API deals in plain values, with tagging handled internally.
    """

    def __init__(
        self,
        placements: Mapping[ReplicaId, Any],
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        **system_kwargs: Any,
    ) -> None:
        self.system = DSMSystem(
            placements,
            seed=seed,
            delay_model=delay_model,
            on_apply=self._on_apply,
            **system_kwargs,
        )
        self._lamport: Dict[ReplicaId, int] = {
            rid: 0 for rid in self.system.graph.replicas
        }
        for replica in self.system.replicas.values():
            replica.core._value_merge = _merge

    @property
    def graph(self) -> ShareGraph:
        return self.system.graph

    # ------------------------------------------------------------------
    def write(self, replica_id: ReplicaId, register: RegisterName, value: Any) -> UpdateId:
        """LWW write: tag with the replica's next Lamport time."""
        self._lamport[replica_id] += 1
        replica = self.system.replica(replica_id)
        tagged = Tagged(
            lamport=self._lamport[replica_id],
            writer_key=str(replica_id),
            seq=replica.metrics.issued + 1,
            value=value,
        )
        return replica.write(register, tagged)

    def read(self, replica_id: ReplicaId, register: RegisterName) -> Any:
        """Read the winning value (``None`` when never written)."""
        tagged = self.system.replica(replica_id).read(register)
        return tagged.value if isinstance(tagged, Tagged) else tagged

    def read_tag(self, replica_id: ReplicaId, register: RegisterName) -> Optional[Tagged]:
        tagged = self.system.replica(replica_id).read(register)
        return tagged if isinstance(tagged, Tagged) else None

    def schedule_write(self, time: float, replica_id, register, value) -> None:
        self.system.simulator.schedule_at(
            time, self.write, replica_id, register, value
        )

    def run(self, **kwargs: Any) -> None:
        self.system.run(**kwargs)

    def check(self, **kwargs: Any):
        return self.system.check(**kwargs)

    # ------------------------------------------------------------------
    def _on_apply(self, replica: Replica, src: ReplicaId, update: Update) -> None:
        # Lamport maintenance: receive rule.
        if isinstance(update.value, Tagged):
            rid = replica.replica_id
            self._lamport[rid] = max(self._lamport[rid], update.value.lamport)

    # ------------------------------------------------------------------
    def converged(self) -> bool:
        """True when every register's copies agree across replicas."""
        for register in self.graph.registers:
            holders = self.graph.replicas_storing(register)
            values = {
                self.read_tag(r, register) for r in holders
            }
            if len(values) > 1:
                return False
        return True

    def divergent_registers(self) -> Dict[RegisterName, Dict[ReplicaId, Any]]:
        """Registers whose copies currently disagree (for diagnostics)."""
        out: Dict[RegisterName, Dict[ReplicaId, Any]] = {}
        for register in self.graph.registers:
            holders = sorted(
                self.graph.replicas_storing(register),
                key=lambda v: (str(type(v)), repr(v)),
            )
            tags = {r: self.read_tag(r, register) for r in holders}
            if len(set(tags.values())) > 1:
                out[register] = tags
        return out
