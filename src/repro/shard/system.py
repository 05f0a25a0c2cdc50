"""The sharded DSM runtime: per-group engines behind one simulator.

:class:`ShardedSystem` wires one :class:`~repro.core.replica.Replica`
(and therefore one sans-I/O :class:`~repro.core.engine.ProtocolCore`)
per replica over a single simulator/network/history, exactly like
:class:`~repro.core.system.DSMSystem` -- but the timestamp policies are
built from the *per-group* edge sets of
:meth:`~repro.shard.plan.ShardPlan.replica_edges`, so every compiled
:class:`~repro.core.timestamp.EdgeIndex` plan stays group-sized no
matter how many groups the deployment has.  Send-side batching is on by
default, so full frames reach the policy's frame hooks: this is the
throughput configuration the ``shard-*`` bench rows measure.

Cross-group writes ride the tree overlay: a write of a cross register at
a subscriber contact updates the local per-group alias, then fans out
along the group tree on per-tree-edge carrier registers, with one
carrier write per distinct next hop serving every destination behind it
(the payload carries the remaining destination set).  Causal order
between forwarded values is inherited from the carriers' causal
delivery, the same argument -- and the same checker -- as
:class:`~repro.optimizations.tree_overlay.TreeOverlaySystem`.
"""

from __future__ import annotations

import time as _time
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.causality import History
from repro.core.replica import Replica
from repro.core.share_graph import ShareGraph
from repro.core.system import SystemMetrics, aggregate_metrics
from repro.core.timestamp import EdgeIndexedPolicy
from repro.errors import ConfigurationError
from repro.network.delays import DelayModel
from repro.network.transport import Network
from repro.shard.plan import OVERLAY_PREFIX, ShardPlan
from repro.sim.kernel import Simulator
from repro.types import RegisterName, ReplicaId, Update, UpdateId


class ShardedSystem:
    """A sharded partially replicated DSM over one simulated network.

    Parameters
    ----------
    plan:
        The validated :class:`~repro.shard.plan.ShardPlan`.
    seed, delay_model:
        Simulation determinism and channel behaviour (channels are
        reliable; the sharding layer composes with the fault layers the
        same way ``DSMSystem`` does, but the bench rows run fault-free).
    batch_window, batch_max:
        Send-side coalescing per (sender, destination); 0 disables.
    """

    def __init__(
        self,
        plan: ShardPlan,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        batch_window: float = 0.25,
        batch_max: int = 64,
    ) -> None:
        self.plan = plan
        self.graph = plan.share_graph()
        edges = plan.replica_edges(self.graph)
        self.simulator = Simulator(seed=seed)
        self.network = Network(self.simulator, delay_model=delay_model)
        self.history = History()
        self.replicas: Dict[ReplicaId, Replica] = {}
        for rid in self.graph.replicas:
            self.replicas[rid] = Replica(
                replica_id=rid,
                graph=self.graph,
                policy=EdgeIndexedPolicy(self.graph, rid, edges=edges[rid]),
                network=self.network,
                history=self.history,
                on_apply=self._on_apply,
                batch_window=batch_window,
                batch_max=batch_max,
            )
        self._alias_of: Dict[
            Tuple[ReplicaId, RegisterName], RegisterName
        ] = {}
        self._alias_registers: set = set()
        for register, subscribers in plan.cross_registers.items():
            for g in subscribers:
                alias = plan.alias(g, register)
                self._alias_of[(plan.contacts[g], register)] = alias
                self._alias_registers.add(alias)
        #: uid -> written value, for the final store audit.
        self.values_by_uid: Dict[UpdateId, Any] = {}
        #: cross register -> observed overlay hop counts.
        self.delivery_hops: Dict[RegisterName, List[int]] = {}

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def write(
        self, replica: ReplicaId, register: RegisterName, value: Any
    ) -> UpdateId:
        """Logical write; cross-group registers also fan out over the tree."""
        subscribers = self.plan.cross_registers.get(register)
        if subscribers is None:
            uid = self.replicas[replica].write(register, value)
            self.values_by_uid[uid] = value
            return uid
        group = self.plan.group_of[replica]
        alias = self._alias_of.get((replica, register))
        if alias is None or group not in subscribers:
            raise ConfigurationError(
                f"cross register {register!r} is writable only at the "
                f"contacts of its subscriber groups {subscribers!r}"
            )
        uid = self.replicas[replica].write(alias, value)
        self.values_by_uid[uid] = value
        others = [g for g in subscribers if g != group]
        if others:
            self._fanout(group, register, value, others, hops=0)
        return uid

    def read(self, replica: ReplicaId, register: RegisterName) -> Any:
        alias = self._alias_of.get((replica, register))
        return self.replicas[replica].read(
            register if alias is None else alias
        )

    def schedule_write(
        self,
        time: float,
        replica: ReplicaId,
        register: RegisterName,
        value: Any,
    ) -> None:
        """Schedule a logical write at absolute virtual time ``time``."""
        self.simulator.schedule_at(time, self.write, replica, register, value)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        self.simulator.run(until=until, max_events=max_events)

    def quiescent(self) -> bool:
        return self.network.stats.in_flight == 0 and all(
            r.pending_count == 0 and r.outbox_pending == 0
            for r in self.replicas.values()
        )

    # ------------------------------------------------------------------
    # Overlay forwarding
    # ------------------------------------------------------------------
    def _fanout(
        self,
        at_group: str,
        register: RegisterName,
        value: Any,
        dests: List[str],
        hops: int,
    ) -> None:
        by_hop: Dict[str, List[str]] = {}
        for dest in dests:
            by_hop.setdefault(
                self.plan.next_hop[at_group][dest], []
            ).append(dest)
        contact = self.plan.contacts[at_group]
        for nxt in sorted(by_hop):
            carrier = self.plan.overlay_register(at_group, nxt)
            uid = self.replicas[contact].write(
                carrier,
                value,
                payload=(register, value, tuple(sorted(by_hop[nxt])), hops + 1),
            )
            self.values_by_uid[uid] = value

    def _on_apply(
        self, replica: Replica, src: ReplicaId, update: Update
    ) -> None:
        if update.payload is None or not str(update.register).startswith(
            OVERLAY_PREFIX
        ):
            return
        register, value, dests, hops = update.payload
        group = self.plan.group_of[replica.replica_id]
        remote = [d for d in dests if d != group]
        if group in dests:
            alias = self.plan.alias(group, register)
            replica.store[alias] = value
            self.delivery_hops.setdefault(register, []).append(hops)
        if remote:
            self._fanout(group, register, value, remote, hops)

    # ------------------------------------------------------------------
    # Verification & metrics
    # ------------------------------------------------------------------
    def check(self, require_liveness: bool = True):
        """Replica-centric causal consistency over the physical history."""
        from repro.checker import check_history

        return check_history(
            self.history, self.graph, require_liveness=require_liveness
        )

    def audit_stores(self) -> List[str]:
        """Final-store audit at quiescence; returns violation strings.

        Physical registers (in-group, carriers, plus each alias'
        history-recorded writes) go through the harness
        :func:`~repro.harness.chaos.store_divergence` audit -- except the
        aliases, whose stores are also written directly by overlay
        forwarding that the history cannot see.  Those get the logical
        audit instead: every subscriber contact must end holding the
        value of some causally-maximal logical write of the cross
        register, where the logical writes are the alias writes across
        all subscriber groups (their causal order is recorded in the one
        shared history).
        """
        from repro.harness.chaos import causal_maxima, store_divergence

        failures = store_divergence(
            self,
            self.values_by_uid,
            registers=self.graph.registers - frozenset(self._alias_registers),
        )
        alias_to_cross: Dict[RegisterName, RegisterName] = {
            self.plan.alias(g, register): register
            for register, subscribers in self.plan.cross_registers.items()
            for g in subscribers
        }
        # Collected in one pass over the history so each cross register's
        # alias writes stay in issue order, as ``causal_maxima`` requires.
        by_cross: Dict[RegisterName, List[UpdateId]] = {}
        for uid in self.history.all_updates():
            cross = alias_to_cross.get(self.history.updates[uid].register)
            if cross is not None:
                by_cross.setdefault(cross, []).append(uid)
        for register in sorted(self.plan.cross_registers, key=str):
            writes = by_cross.get(register, [])
            if not writes:
                continue
            maxima = causal_maxima(self.history, writes)
            if not all(u in self.values_by_uid for u in maxima):
                continue
            allowed = {self.values_by_uid[u] for u in maxima}
            for g in self.plan.cross_registers[register]:
                contact = self.plan.contacts[g]
                alias = self.plan.alias(g, register)
                actual = self.replicas[contact].store.get(alias)
                if actual not in allowed:
                    failures.append(
                        f"shard store diverged: contact {contact!r} of "
                        f"group {g!r} holds {register!r}={actual!r}, not "
                        "the value of any causally-maximal write"
                    )
        return failures

    def metrics(self) -> SystemMetrics:
        return aggregate_metrics(self.replicas, self.network)

    def metadata_bytes_per_op(self, ops: int) -> float:
        """Timestamp wire bytes shipped per logical client write."""
        return self.metrics().metadata_bytes_sent / max(1, ops)

    def __repr__(self) -> str:
        return (
            f"ShardedSystem({len(self.replicas)} replicas, "
            f"{len(self.plan.groups)} groups)"
        )


# ----------------------------------------------------------------------
# The monolithic comparison system
# ----------------------------------------------------------------------
def monolithic_system(plan: ShardPlan, seed: int = 0, **system_kwargs: Any):
    """The same logical register space with one monolithic share graph.

    Cross-group registers are shared *directly* between subscriber
    contacts, so the share graph is as tangled as the workload demands.
    Exact Definition 5 timestamp graphs are not computable at this scale
    (the loop enumeration is combinatorial, which is the whole point of
    sharding), so the monolithic system runs the Full-Track sufficient
    fallback -- every replica tracks the entire edge set, the
    configuration a monolithic deployment would actually ship.  That
    makes the bench's metadata comparison conservative in the
    monolith's favour on structure, generous on edge count; both
    numbers use the same ``timestamp_wire_bytes`` codec.
    """
    from repro.core.system import DSMSystem

    graph = plan.logical_graph()

    def full_track(g: ShareGraph, rid: ReplicaId) -> EdgeIndexedPolicy:
        return EdgeIndexedPolicy(g, rid, edges=g.edges)

    return DSMSystem(graph, policy_factory=full_track, seed=seed, **system_kwargs)


def monolithic_metadata_bytes_per_op(
    plan: ShardPlan,
    writes: int,
    rate: float = 1.0,
    seed: int = 13,
    skew: float = 1.2,
) -> float:
    """Measured metadata bytes/op of the monolithic system.

    Runs the same Zipf workload shape over the logical graph and divides
    the accumulated timestamp wire bytes by the writes issued.  Bytes/op
    is dominated by the (constant) per-replica timestamp width times the
    recipient fanout, so a few hundred writes measure it stably.
    """
    from repro.workloads.operations import run_workload, zipf_writes

    system = monolithic_system(plan, seed=7)
    stream = zipf_writes(
        system.graph, writes, rate=rate, skew=skew, seed=seed
    )
    run_workload(system, stream)
    report = system.check()
    if not report.ok:
        raise AssertionError(
            f"monolithic comparison run violated causal consistency: {report}"
        )
    return system.metrics().metadata_bytes_sent / max(1, len(stream))
