"""Epoch-based reconfiguration of register placements.

The paper treats placements as static; real systems add and drop replicas
of a register over time.  This module implements the simplest correct
lifting: reconfiguration happens at a **quiescent barrier** (no message in
flight, no update pending -- achieved by running the simulator dry), at
which point

1. the new share graph and all timestamp graphs are recomputed;
2. every replica's timestamp is re-seeded with the *authoritative* edge
   counters -- ``tau[e_jk] = number of updates issued so far by j on
   registers of the new X_jk`` -- computed from the global history, so all
   replicas restart mutually consistent (mid-flight counter staleness
   cannot deadlock the predicate);
3. registers newly placed at a replica are state-transferred from the
   lexicographically smallest current holder, and the transfer is logged
   as applications of every past update on that register (the donor had
   applied them all at quiescence), keeping the checker's liveness
   accounting exact across epochs.

This mirrors how practical systems reconfigure through a coordinated
checkpoint; fully online reconfiguration is out of scope (as it is for
the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.causality import History
from repro.core.replica import Replica
from repro.core.share_graph import ShareGraph
from repro.core.system import Client
from repro.core.timestamp import Timestamp, edge_policy_factory
from repro.errors import ConfigurationError
from repro.network.delays import DelayModel
from repro.network.transport import Network
from repro.sim.kernel import Simulator
from repro.types import RegisterName, ReplicaId


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of a reconfigurable system's life."""

    epoch: int
    graph: ShareGraph
    first_event: int  # position in the shared history


class ReconfigurableDSMSystem:
    """A DSM whose placement can change at quiescent barriers."""

    def __init__(
        self,
        placements: Mapping[ReplicaId, AbstractSet[RegisterName]],
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
    ) -> None:
        self.simulator = Simulator(seed=seed)
        self.history = History()
        self._delay_model = delay_model
        self.graph = ShareGraph(placements)
        self.epochs: List[EpochRecord] = []
        self.replicas: Dict[ReplicaId, Replica] = {}
        self._clients: Dict[ReplicaId, Client] = {}
        self._build(self.graph, stores={}, seqs={})

    # ------------------------------------------------------------------
    def _issue_counts(self) -> Dict[Tuple[ReplicaId, RegisterName], int]:
        counts: Dict[Tuple[ReplicaId, RegisterName], int] = {}
        for uid in self.history.all_updates():
            record = self.history.updates[uid]
            key = (uid.issuer, record.register)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def _authoritative_timestamp(
        self, graph: ShareGraph, edges, counts
    ) -> Timestamp:
        counters = {}
        for (j, k) in edges:
            counters[(j, k)] = sum(
                counts.get((j, x), 0) for x in graph.shared(j, k)
            )
        return Timestamp(counters)

    def _build(
        self,
        graph: ShareGraph,
        stores: Dict[ReplicaId, Dict[RegisterName, Any]],
        seqs: Dict[ReplicaId, int],
    ) -> None:
        self.graph = graph
        self.network = Network(self.simulator, delay_model=self._delay_model)
        policy_factory = edge_policy_factory(graph)
        counts = self._issue_counts()
        self.replicas = {}
        for rid in graph.replicas:
            policy = policy_factory(graph, rid)
            self.replicas[rid] = Replica(
                replica_id=rid,
                graph=graph,
                policy=policy,
                network=self.network,
                history=self.history,
                initial_timestamp=self._authoritative_timestamp(
                    graph, policy.edges, counts
                ),
                initial_seq=seqs.get(rid, 0),
                initial_store=stores.get(rid),
            )
        self._clients = {
            rid: Client(replica) for rid, replica in self.replicas.items()
        }
        self.epochs.append(
            EpochRecord(len(self.epochs), graph, len(self.history.events))
        )

    # ------------------------------------------------------------------
    # Epoch-0-compatible API
    # ------------------------------------------------------------------
    def client(self, replica_id: ReplicaId) -> Client:
        try:
            return self._clients[replica_id]
        except KeyError:
            raise ConfigurationError(f"no replica {replica_id!r}") from None

    def replica(self, replica_id: ReplicaId) -> Replica:
        try:
            return self.replicas[replica_id]
        except KeyError:
            raise ConfigurationError(f"no replica {replica_id!r}") from None

    def schedule_write(self, time, replica_id, register, value) -> None:
        replica = self.replica(replica_id)
        self.simulator.schedule_at(time, replica.write, register, value)

    def run(self, **kwargs: Any) -> None:
        self.simulator.run(**kwargs)

    def quiescent(self) -> bool:
        return self.network.stats.in_flight == 0 and all(
            r.pending_count == 0 for r in self.replicas.values()
        )

    @property
    def epoch(self) -> int:
        return self.epochs[-1].epoch

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def reconfigure(
        self,
        add: Optional[Mapping[ReplicaId, AbstractSet[RegisterName]]] = None,
        remove: Optional[Mapping[ReplicaId, AbstractSet[RegisterName]]] = None,
    ) -> None:
        """Change the placement at a quiescent barrier.

        ``add`` places existing registers at more replicas (with state
        transfer); ``remove`` drops register copies.  The simulator agenda
        must be dry (call :meth:`run` first).
        """
        self.run()  # drain to the barrier
        if not self.quiescent():  # pragma: no cover - run() drains
            raise ConfigurationError("cannot reconfigure while messages fly")
        add = {r: frozenset(x) for r, x in (add or {}).items()}
        remove = {r: frozenset(x) for r, x in (remove or {}).items()}

        placements = {
            r: set(regs) for r, regs in self.graph.placement().items()
        }
        for r, regs in remove.items():
            if r not in placements:
                raise ConfigurationError(f"unknown replica {r!r}")
            missing = regs - placements[r]
            if missing:
                raise ConfigurationError(
                    f"cannot remove unplaced registers {sorted(map(repr, missing))} "
                    f"from {r!r}"
                )
            placements[r] -= regs
        transfers: List[Tuple[ReplicaId, RegisterName, ReplicaId]] = []
        for r, regs in add.items():
            if r not in placements:
                raise ConfigurationError(f"unknown replica {r!r}")
            for x in sorted(regs, key=lambda v: (str(type(v)), repr(v))):
                if x in placements[r]:
                    raise ConfigurationError(
                        f"register {x!r} already placed at {r!r}"
                    )
                holders = sorted(
                    (h for h, p in placements.items() if x in p),
                    key=lambda v: (str(type(v)), repr(v)),
                )
                if not holders:
                    raise ConfigurationError(
                        f"register {x!r} has no current holder to "
                        "state-transfer from"
                    )
                transfers.append((r, x, holders[0]))
                placements[r].add(x)

        # Carry state: stores, per-replica write sequence numbers.
        stores = {
            rid: dict(replica.store) for rid, replica in self.replicas.items()
        }
        seqs = {rid: replica.core.seq for rid, replica in self.replicas.items()}
        now = self.simulator.now
        transferred: Dict[ReplicaId, set] = {}
        for receiver, register, donor in transfers:
            stores.setdefault(receiver, {})[register] = stores[donor][register]
            transferred.setdefault(receiver, set()).add(register)
        # Log the transfers: every past update on a transferred register
        # counts as applied at the receiver (the donor had applied them
        # all at the barrier).  One pass per receiver in global issue
        # order, so dependencies between two transferred registers are
        # applied in a causality-respecting order.
        for receiver in sorted(transferred, key=lambda v: (str(type(v)), repr(v))):
            registers = transferred[receiver]
            for uid in self.history.all_updates():
                record = self.history.updates[uid]
                if (
                    record.register in registers
                    and receiver not in self.history.applied_at(uid)
                ):
                    self.history.record_apply(receiver, uid, now)

        self._build(ShareGraph(placements), stores=stores, seqs=seqs)

    # ------------------------------------------------------------------
    def check(self, require_liveness: bool = True):
        """Verify the whole multi-epoch history against the current graph.

        State transfers are logged as applications, so liveness is exact;
        safety holds per Definition 2 with happened-before accumulated
        across epochs.
        """
        from repro.checker import check_history

        return check_history(
            self.history,
            self.graph,
            require_liveness=require_liveness,
            epoch_graphs=[
                (record.first_event, record.graph) for record in self.epochs
            ],
        )

    def __repr__(self) -> str:
        return (
            f"ReconfigurableDSMSystem(epoch={self.epoch}, "
            f"{len(self.replicas)} replicas)"
        )
