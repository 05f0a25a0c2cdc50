"""Peer-to-peer DSM system wiring (Figure 1a) and the client API.

:class:`DSMSystem` assembles a simulator, a non-FIFO network, one replica
per placement entry, and a shared :class:`~repro.core.causality.History`.
Clients are co-located with replicas (peer-to-peer architecture): a
``read``/``write`` through :class:`Client` executes synchronously at the
local replica, exactly as in Section 2.

Typical usage::

    system = DSMSystem({1: {"x"}, 2: {"x", "y"}, 3: {"y"}}, seed=7)
    system.client(1).write("x", 41)
    system.run()                     # deliver everything
    assert system.client(2).read("x") == 41
    report = system.check()          # replica-centric causal consistency
    assert report.ok
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.causality import History
from repro.core.engine.adapter import _AdapterSet
from repro.core.replica import ApplyHook, Replica
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import TimestampPolicy, edge_policy_factory
from repro.errors import ConfigurationError, ProtocolError
from repro.network.delays import DelayModel
from repro.network.faults import FaultPlan, ReliableNetwork
from repro.network.transport import Network
from repro.sim.kernel import Simulator
from repro.types import RegisterName, ReplicaId, UpdateId

PolicyFactory = Callable[[ShareGraph, ReplicaId], TimestampPolicy]


class Client:
    """The client co-located with one replica (peer-to-peer architecture)."""

    def __init__(self, replica: Replica) -> None:
        self._replica = replica

    @property
    def replica_id(self) -> ReplicaId:
        return self._replica.replica_id

    def read(self, register: RegisterName) -> Any:
        """Read ``register`` from the local replica."""
        return self._replica.read(register)

    def write(self, register: RegisterName, value: Any) -> UpdateId:
        """Write ``register`` at the local replica; returns the update id."""
        return self._replica.write(register, value)

    def __repr__(self) -> str:
        return f"Client(at={self.replica_id!r})"


@dataclass
class SystemMetrics:
    """Cross-replica summary of one run."""

    timestamp_counters: Dict[ReplicaId, int]
    messages_sent: int
    messages_delivered: int
    metadata_counters_sent: int
    metadata_bytes_sent: int
    issued: int
    applied_remote: int
    pending_high_water: int
    mean_apply_delay: float
    # Robustness counters (all zero on fault-free runs without the
    # anti-entropy layer; defaulted so older callers are unaffected).
    syncs: int = 0
    updates_shed: int = 0
    stale_discarded: int = 0
    unacked_high_water: int = 0
    retransmit_log_compacted: int = 0
    retransmit_log_compacted_bytes: int = 0
    retransmit_log_truncated: int = 0
    # Visibility-cut (GST) counters; zero under non-stabilizing policies.
    visible_count: int = 0
    mean_visible_lag: float = 0.0
    max_visible_lag: float = 0.0
    # Delivery-engine readiness probes (see ReplicaMetrics).
    candidate_probes: int = 0

    @property
    def total_counters(self) -> int:
        """Sum of timestamp lengths across replicas (metadata footprint)."""
        return sum(self.timestamp_counters.values())


class DSMSystem(_AdapterSet):
    """A complete simulated partially replicated DSM.

    Parameters
    ----------
    placements:
        Either a ``{replica: register set}`` mapping or a prebuilt
        :class:`ShareGraph`.
    policy_factory:
        Builds the timestamp policy per replica.  Defaults to the paper's
        :class:`EdgeIndexedPolicy` over the exact timestamp graph, with one
        shared loop-finder cache.
    seed, delay_model:
        Simulation determinism and channel behaviour.
    dummy_registers:
        Appendix D dummy placements: ``{replica: registers held as
        metadata-only}``.  These registers must already be in the
        replica's placement (use
        :func:`repro.optimizations.dummy.add_dummy_registers` to build
        augmented placements conveniently).
    max_loop_len:
        Bounded-loop variant for the default policy factory.
    track_timestamps:
        Collect distinct timestamps per replica (Definition 12 studies).
    fault_plan:
        When given, channels become unreliable under this seeded plan and
        the system runs over a :class:`~repro.network.faults.ReliableNetwork`
        (sequence numbers, acks, retransmission) so the paper's
        reliable-channel abstraction is recovered rather than assumed.
        Crash/recovery (:meth:`crash`, :meth:`recover`) also requires this
        (a trivial plan works: the ARQ layer is then forced on).
    """

    def __init__(
        self,
        placements: Union[ShareGraph, Mapping[ReplicaId, AbstractSet[RegisterName]]],
        policy_factory: Optional[PolicyFactory] = None,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        dummy_registers: Optional[Mapping[ReplicaId, AbstractSet[RegisterName]]] = None,
        max_loop_len: Optional[int] = None,
        track_timestamps: bool = False,
        on_apply: Optional[ApplyHook] = None,
        fault_plan: Optional[FaultPlan] = None,
        unacked_cap: Optional[int] = None,
        batch_window: float = 0.0,
        batch_max: int = 64,
    ) -> None:
        self.graph = (
            placements
            if isinstance(placements, ShareGraph)
            else ShareGraph(placements)
        )
        if batch_window > 0 and fault_plan is not None:
            # The ARQ layer tracks/acks individual updates; batch frames
            # would need per-member confirmation matching it does not do.
            raise ConfigurationError(
                "batch_window requires reliable channels (no fault_plan)"
            )
        self.simulator = Simulator(seed=seed)
        if fault_plan is not None:
            self.network: Network = ReliableNetwork(
                self.simulator,
                delay_model=delay_model,
                plan=fault_plan,
                always_on=True,
                unacked_cap=unacked_cap,
            )
        else:
            if unacked_cap is not None:
                raise ConfigurationError(
                    "unacked_cap bounds the reliable layer's retransmit "
                    "log: it requires a fault_plan"
                )
            self.network = Network(self.simulator, delay_model=delay_model)
        self.history = History()
        dummy_map: Dict[ReplicaId, FrozenSet[RegisterName]] = {
            r: frozenset(regs) for r, regs in (dummy_registers or {}).items()
        }
        for r, regs in dummy_map.items():
            extra = regs - self.graph.registers_at(r)
            if extra:
                raise ConfigurationError(
                    f"dummy registers {sorted(map(repr, extra))} are not in "
                    f"the placement of replica {r!r}"
                )
        if policy_factory is None:
            policy_factory = edge_policy_factory(self.graph, max_loop_len)
        self.replicas: Dict[ReplicaId, Replica] = {}
        for rid in self.graph.replicas:
            self.replicas[rid] = Replica(
                replica_id=rid,
                graph=self.graph,
                policy=policy_factory(self.graph, rid),
                network=self.network,
                history=self.history,
                dummy_registers=dummy_map.get(rid, frozenset()),
                on_apply=on_apply,
                track_timestamps=track_timestamps,
                batch_window=batch_window,
                batch_max=batch_max,
            )
        for replica in self.replicas.values():
            replica.set_dummy_map(dummy_map)
        self._clients: Dict[ReplicaId, Client] = {
            rid: Client(replica) for rid, replica in self.replicas.items()
        }

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def client(self, replica_id: ReplicaId) -> Client:
        """The client co-located with ``replica_id``."""
        try:
            return self._clients[replica_id]
        except KeyError:
            raise ConfigurationError(f"no replica {replica_id!r}") from None

    def replica(self, replica_id: ReplicaId) -> Replica:
        try:
            return self.replicas[replica_id]
        except KeyError:
            raise ConfigurationError(f"no replica {replica_id!r}") from None

    # ------------------------------------------------------------------
    # Driving the simulation
    # ------------------------------------------------------------------
    def schedule_write(
        self,
        time: float,
        replica_id: ReplicaId,
        register: RegisterName,
        value: Any,
    ) -> None:
        """Schedule a client write at absolute virtual time ``time``."""
        replica = self.replica(replica_id)
        self.simulator.schedule_at(time, replica.write, register, value)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run the simulation (defaults to running the agenda dry)."""
        self.simulator.run(until=until, max_events=max_events)

    def quiescent(self) -> bool:
        """True when nothing is in flight, unacked, pending, or unflushed."""
        return (
            self.network.stats.in_flight == 0
            and getattr(self.network, "idle", True)
            and all(
                r.pending_count == 0 and r.outbox_pending == 0
                for r in self.replicas.values()
            )
        )

    # ------------------------------------------------------------------
    # Global stabilization (visibility-cut policies, repro.gst)
    # ------------------------------------------------------------------
    def schedule_stabilize(self, time: float) -> None:
        """Schedule one cluster-wide stabilization round at ``time``.

        Benches use periodic rounds to measure visibility lag mid-run;
        correctness only needs :meth:`settle_visibility` at the end.
        """
        self.simulator.schedule_at(time, self.stabilize_all)

    def settle_visibility(self, max_rounds: Optional[int] = None) -> int:
        """Drive stabilization rounds until every update is visible.

        Alternates "run the network dry" with cluster-wide stabilize
        rounds until no replica holds applied-but-unstable updates.  The
        protocol needs O(diameter) rounds for ``heard`` bounds and the
        min-gossip table to converge; the default cap of ``3 n + 5``
        rounds is far above that and turns a liveness bug into a loud
        :class:`~repro.errors.ProtocolError` instead of a hang.  Returns
        the number of rounds driven (0 for non-stabilizing policies).
        """
        self.run()
        if not self.stabilizing:
            return 0
        if max_rounds is None:
            max_rounds = 3 * len(self.replicas) + 5
        rounds = 0
        while any(
            r.unstable_count > 0 and not r.crashed
            for r in self.replicas.values()
        ):
            if rounds >= max_rounds:
                stuck = {
                    str(rid): r.unstable_count
                    for rid, r in self.replicas.items()
                    if r.unstable_count
                }
                raise ProtocolError(
                    f"visibility did not settle in {max_rounds} rounds; "
                    f"unstable: {stuck}"
                )
            self.stabilize_all()
            self.run()
            rounds += 1
        return rounds

    # ------------------------------------------------------------------
    # Fault injection (crash / recovery)
    # ------------------------------------------------------------------
    def crash(self, replica_id: ReplicaId) -> None:
        """Crash a replica now (requires ``fault_plan``); see
        :meth:`repro.core.replica.Replica.crash`."""
        self.replica(replica_id).crash()

    def recover(self, replica_id: ReplicaId) -> None:
        """Recover a crashed replica now."""
        self.replica(replica_id).recover()

    def schedule_crash(self, time: float, replica_id: ReplicaId) -> None:
        """Schedule a crash at absolute virtual time ``time``."""
        replica = self.replica(replica_id)
        self.simulator.schedule_at(time, replica.crash)

    def schedule_recover(self, time: float, replica_id: ReplicaId) -> None:
        """Schedule a recovery at absolute virtual time ``time``."""
        replica = self.replica(replica_id)
        self.simulator.schedule_at(time, replica.recover)

    # ------------------------------------------------------------------
    # Verification & metrics
    # ------------------------------------------------------------------
    def metrics(self) -> SystemMetrics:
        """Aggregate protocol metrics for the run so far."""
        per = [r.metrics for r in self.replicas.values()]
        delay_count = sum(m.applied_remote for m in per)
        visible_count = sum(m.visible_count for m in per)
        stats = self.network.stats
        return SystemMetrics(
            timestamp_counters={
                rid: r.policy.counters() for rid, r in self.replicas.items()
            },
            messages_sent=stats.messages_sent,
            messages_delivered=stats.messages_delivered,
            metadata_counters_sent=stats.metadata_counters_sent,
            metadata_bytes_sent=stats.metadata_bytes_sent,
            issued=sum(m.issued for m in per),
            applied_remote=delay_count,
            pending_high_water=max(
                (m.pending_high_water for m in per), default=0
            ),
            mean_apply_delay=(
                sum(m.apply_delay_total for m in per) / delay_count
                if delay_count
                else 0.0
            ),
            syncs=sum(m.syncs for m in per),
            updates_shed=sum(m.updates_shed for m in per),
            stale_discarded=sum(m.stale_discarded for m in per),
            unacked_high_water=stats.unacked_high_water,
            retransmit_log_compacted=stats.retransmit_log_compacted,
            retransmit_log_compacted_bytes=stats.retransmit_log_compacted_bytes,
            retransmit_log_truncated=stats.retransmit_log_truncated,
            visible_count=visible_count,
            mean_visible_lag=(
                sum(m.visible_lag_total for m in per) / visible_count
                if visible_count
                else 0.0
            ),
            max_visible_lag=max(
                (m.visible_lag_max for m in per), default=0.0
            ),
            candidate_probes=sum(m.candidate_probes for m in per),
        )

    def __repr__(self) -> str:
        return f"DSMSystem({len(self.replicas)} replicas)"
