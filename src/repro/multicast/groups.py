"""Overlapping-group causal multicast via the DSM correspondence.

Each group becomes one shared register stored at exactly its members; a
``multicast(sender, group, payload)`` is a write of that register; message
delivery is the application of the corresponding update.  The edge-indexed
timestamps of Section 3.3 then provide causal delivery with metadata that
is provably minimal for the group-overlap structure (Theorem 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.replica import Replica
from repro.core.system import DSMSystem
from repro.errors import ConfigurationError
from repro.network.delays import DelayModel
from repro.types import ReplicaId, Update, UpdateId

GroupName = Any
ProcessId = ReplicaId


@dataclass(frozen=True)
class Delivery:
    """One delivered multicast message, as observed by a process."""

    process: ProcessId
    group: GroupName
    sender: ProcessId
    payload: Any
    uid: UpdateId
    time: float


class CausalGroupMulticast:
    """Causal multicast among processes with overlapping groups.

    Parameters
    ----------
    groups:
        Mapping from group name to its member processes.  Every process
        must belong to at least one group.
    seed, delay_model:
        Simulation parameters (channels are reliable and non-FIFO).

    Example
    -------
    ::

        mc = CausalGroupMulticast({"g1": {1, 2}, "g2": {2, 3}}, seed=1)
        mc.multicast(1, "g1", "hello")
        mc.run()
        assert mc.deliveries_at(2)[0].payload == "hello"
    """

    def __init__(
        self,
        groups: Mapping[GroupName, AbstractSet[ProcessId]],
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
    ) -> None:
        if not groups:
            raise ConfigurationError("need at least one group")
        self._register_of: Dict[GroupName, str] = {}
        placements: Dict[ProcessId, set] = {}
        for name in sorted(groups, key=lambda g: (str(type(g)), repr(g))):
            members = groups[name]
            if not members:
                raise ConfigurationError(f"group {name!r} is empty")
            register = f"group:{name}"
            self._register_of[name] = register
            for p in members:
                placements.setdefault(p, set()).add(register)
        self.groups: Dict[GroupName, FrozenSet[ProcessId]] = {
            name: frozenset(groups[name]) for name in groups
        }
        self.deliveries: List[Delivery] = []
        self.system = DSMSystem(
            placements,
            seed=seed,
            delay_model=delay_model,
            on_apply=self._on_apply,
        )
        self._group_of_register = {
            reg: name for name, reg in self._register_of.items()
        }

    # ------------------------------------------------------------------
    def multicast(
        self, sender: ProcessId, group: GroupName, payload: Any
    ) -> UpdateId:
        """Multicast ``payload`` to ``group``; the sender must be a member."""
        if group not in self.groups:
            raise ConfigurationError(f"unknown group {group!r}")
        if sender not in self.groups[group]:
            raise ConfigurationError(
                f"process {sender!r} is not a member of group {group!r}"
            )
        register = self._register_of[group]
        uid = self.system.replica(sender).write(register, (sender, payload))
        # Local delivery at the sender (its own multicast is applied at
        # issue time, mirroring causal-multicast semantics).
        self.deliveries.append(
            Delivery(
                process=sender,
                group=group,
                sender=sender,
                payload=payload,
                uid=uid,
                time=self.system.simulator.now,
            )
        )
        return uid

    def schedule_multicast(
        self, time: float, sender: ProcessId, group: GroupName, payload: Any
    ) -> None:
        """Schedule a multicast at absolute virtual time ``time``."""
        self.system.simulator.schedule_at(
            time, self.multicast, sender, group, payload
        )

    def run(self, **kwargs: Any) -> None:
        self.system.run(**kwargs)

    # ------------------------------------------------------------------
    def _on_apply(self, replica: Replica, src: ReplicaId, update: Update) -> None:
        group = self._group_of_register.get(update.register)
        if group is None:  # pragma: no cover - all registers are groups
            return
        sender, payload = update.value
        self.deliveries.append(
            Delivery(
                process=replica.replica_id,
                group=group,
                sender=sender,
                payload=payload,
                uid=update.uid,
                time=self.system.simulator.now,
            )
        )

    def deliveries_at(self, process: ProcessId) -> Tuple[Delivery, ...]:
        """Messages delivered to one process, in delivery order."""
        return tuple(d for d in self.deliveries if d.process == process)

    def check(self, require_liveness: bool = True):
        """Causal delivery holds iff the underlying DSM run is consistent."""
        return self.system.check(require_liveness=require_liveness)

    def metadata_counters(self) -> Dict[ProcessId, int]:
        """Timestamp counters per process for this group structure.

        Counts tracked counters (the paper's metadata measure: how many
        integers a process carries), not their encoded size.
        """
        return {
            rid: r.policy.counters()
            for rid, r in self.system.replicas.items()
        }
