"""The client-server protocol (Appendix E.1 / E.5).

Clients keep their own timestamps and attach them to requests; replicas
buffer requests behind predicates ``J1``/``J2`` (session safety) and
buffer inter-replica updates behind ``J3`` (causal delivery), exactly as
specified in Appendix E.5:

* ``J1(i, tau, c, mu) = J2 = true`` iff ``tau[e_ji] >= mu[e_ji]`` for every
  incoming edge ``e_ji`` of ``E^_i``;
* ``J3`` is the peer-to-peer predicate over ``E^_i ∩ E^_k``;
* ``advance(i, tau, c, mu, x, v)`` increments ``tau[e_ik]`` for ``x in
  X_ik`` and takes ``max(tau, mu)`` elsewhere;
* ``merge1 = merge2`` (client) and ``merge3`` (replica) are element-wise
  maxima over the respective shared index sets.

Clients are sequential: one outstanding operation, the next is sent only
after the response arrives (plus an optional think time).

Replicas are :class:`~repro.core.engine.CoreAdapter` subclasses over the
shared sans-I/O :class:`~repro.core.engine.ProtocolCore`: ``J3`` and
``merge3`` are the base :class:`~repro.core.timestamp.EdgeIndexedPolicy`
predicate and merge over the augmented edge set, and the client-floored
``advance`` is the :class:`AugmentedServerPolicy` extension below.  Only
the session layer (request buffering behind ``J1``/``J2``, dedup,
responses) lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.clientserver.augmented import (
    ClientAssignment,
    all_augmented_timestamp_graphs,
)
from repro.core.causality import AccessToken, History
from repro.core.engine import CoreAdapter, ReplicaMetrics
from repro.core.engine.adapter import _AdapterSet
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import EdgeIndexedPolicy, Timestamp
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    RetryExhaustedError,
    UnknownRegisterError,
)
from repro.network.delays import DelayModel
from repro.network.faults import FaultPlan, ReliableNetwork
from repro.network.transport import Network
from repro.sim.kernel import EventHandle, Simulator
from repro.types import ClientId, Edge, RegisterName, ReplicaId, UpdateId


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
# ``request_id`` is a per-client monotone sequence number: replicas use it
# to deduplicate retried requests (timeout-driven retransmissions execute
# at most once per replica), and clients use the echoed id to discard
# stale or duplicate responses.
#
# ``access_token`` on responses is ground-truth instrumentation, not
# protocol state: the serving replica's history snapshot
# (:meth:`repro.core.causality.History.access_token`), replayed into the
# history only when the client accepts the response, so the checker sees
# the client's causal past grow by exactly what the response conveyed.
@dataclass(frozen=True)
class ReadRequest:
    client: ClientId
    register: RegisterName
    timestamp: Timestamp
    request_id: int = 0


@dataclass(frozen=True)
class WriteRequest:
    client: ClientId
    register: RegisterName
    value: Any
    timestamp: Timestamp
    request_id: int = 0


@dataclass(frozen=True)
class ReadResponse:
    register: RegisterName
    value: Any
    timestamp: Timestamp
    request_id: int = 0
    access_token: Optional[AccessToken] = None


@dataclass(frozen=True)
class WriteResponse:
    register: RegisterName
    uid: UpdateId
    timestamp: Timestamp
    request_id: int = 0
    access_token: Optional[AccessToken] = None


# ----------------------------------------------------------------------
# Replica
# ----------------------------------------------------------------------
class AugmentedServerPolicy(EdgeIndexedPolicy):
    """Appendix E.5 timestamp functions over the augmented edge set.

    ``J3`` and ``merge3`` are exactly the base peer-to-peer predicate and
    element-wise max, so the delivery engine's seq-indexed queues apply
    unchanged (every update replica ``k`` sends ``i`` bumps ``e_ki`` by
    one, so the exact-FIFO index is sound).  Only ``advance`` differs:
    the serving replica floors its counters at the requesting client's
    timestamp ``mu`` before stamping the write.
    """

    def advance_with_floor(
        self, ts: Timestamp, mu: Timestamp, register: RegisterName
    ) -> Timestamp:
        """``advance(i, tau, c, mu, x, v)``: bump ``e_ik`` for ``x in
        X_ik`` from tau's own value, take ``max(tau, mu)`` elsewhere."""
        if ts._eindex is not self._eindex:
            raise self._foreign(ts)
        old = ts.values_array
        values = list(old)
        mu_values = mu.values_array
        for pos, mpos in self._merge_plan(mu._eindex):
            v = mu_values[mpos]
            if v > values[pos]:
                values[pos] = v
        # Own out-edges carrying the register bump from tau's value;
        # mu can never exceed tau there (only i bumps them), but the
        # historical definition reads tau, so restore before +1.
        for pos in self._bumps.get(register, ()):
            values[pos] = old[pos] + 1
        return Timestamp.from_array(self._eindex, values)


class CSReplica(CoreAdapter):
    """A server replica: the shared protocol core plus a session layer.

    Inter-replica updates flow straight into the engine (``J3`` delivery
    with per-sender indexed queues); client requests buffer here behind
    ``J1``/``J2`` and are served one at a time, re-draining the engine
    after each serve because a mu-floored ``advance`` can unblock
    buffered updates.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        graph: ShareGraph,
        edges: FrozenSet[Edge],
        network: Network,
        history: Optional[History] = None,
        batch_window: float = 0.0,
        batch_max: int = 64,
    ) -> None:
        self.edges = frozenset(edges)
        self.network = network
        simulator = network.simulator
        super().__init__(
            replica_id,
            graph,
            AugmentedServerPolicy(graph, replica_id, edges=edges),
            lambda: simulator.now,
            history=history,
            batch_window=batch_window,
            batch_max=batch_max,
            size_wire=False,
        )
        self.buffered_requests: List[Tuple[ClientId, Any]] = []
        # Session dedup: clients are sequential, so one cache slot per
        # client suffices: (last served request_id, cached response).
        self._served: Dict[ClientId, Tuple[int, Any]] = {}
        self._incoming: Tuple[Edge, ...] = tuple(
            sorted(
                ((n, replica_id) for n in graph.neighbors(replica_id)),
                key=lambda e: (str(e[0]), str(e[1])),
            )
        )
        network.register(replica_id, self.on_message)

    # -- the skeleton's two primitives -----------------------------------
    def _transmit(
        self,
        dst: ReplicaId,
        message: Any,
        metadata_counters: int,
        wire_bytes: int,
    ) -> None:
        self.network.send(self.replica_id, dst, message, metadata_counters)

    def _call_later(self, delay: float, fn: Callable[[], None]) -> Any:
        return self.network.simulator.schedule(delay, fn)

    # -- session predicate (Appendix E.5) --------------------------------
    def _session_ready(self, mu: Timestamp) -> bool:
        """``J1 = J2``: the replica has caught up with the client."""
        ts = self.core.timestamp
        for e in self._incoming:
            client_val = mu.get(e)
            if client_val is not None and ts[e] < client_val:
                return False
        return True

    # -- message handling ----------------------------------------------
    def on_message(self, src: ReplicaId, message: Any) -> None:
        if isinstance(message, (ReadRequest, WriteRequest)):
            self.buffered_requests.append((src, message))
        else:
            self._deliver(src, message)
        self._pump()

    def _pump(self) -> None:
        """Serve ready requests, re-draining updates between serves.

        The engine already applied every ready update (to fixpoint), so
        requests only wait on ``J1``/``J2``.  Serving a write advances the
        timestamp (mu-max can raise third-party counters), which may make
        buffered updates ready again -- hence the ``tick`` per iteration.
        """
        progress = True
        while progress:
            progress = False
            for index, (client, request) in enumerate(self.buffered_requests):
                if self._session_ready(request.timestamp):
                    del self.buffered_requests[index]
                    self._serve(client, request)
                    progress = True
                    break
            if progress:
                self.core.tick()

    def _serve(self, client: ClientId, request: Any) -> None:
        served = self._served.get(client)
        if served is not None:
            last_id, cached_response = served
            if request.request_id == last_id:
                # Retried request whose first copy we already executed:
                # resend the cached response without re-executing.
                self._respond(client, cached_response)
                return
            if request.request_id < last_id:
                # Stale duplicate of an older request; the client has
                # moved on and will discard any response -- drop it.
                return
        if isinstance(request, ReadRequest):
            response: Any = ReadResponse(
                request.register,
                self.core.read(request.register),
                self.core.timestamp,
                request_id=request.request_id,
                access_token=self._token(),
            )
            self._served[client] = (request.request_id, response)
            self._respond(client, response)
            return
        # WriteRequest: the engine stamps, stores, records, and multicasts;
        # the mu floor rides in as this write's advance override.
        mu = request.timestamp
        uid = self.core.local_write(
            request.register,
            request.value,
            advance=lambda ts, reg: self.policy.advance_with_floor(
                ts, mu, reg
            ),
            client=client,
        )
        response = WriteResponse(
            request.register, uid, self.core.timestamp,
            request_id=request.request_id,
            access_token=self._token(),
        )
        self._served[client] = (request.request_id, response)
        self._respond(client, response)

    def _token(self) -> Optional[AccessToken]:
        if self.history is None:
            return None
        return self.history.access_token(self.replica_id)

    def _respond(self, client: ClientId, response: Any) -> None:
        self.network.send(
            self.replica_id,
            client,
            response,
            metadata_counters=len(response.timestamp),
        )

    def __repr__(self) -> str:
        return (
            f"CSReplica({self.replica_id!r}, "
            f"pending={self.core.pending_count}, "
            f"buffered={len(self.buffered_requests)})"
        )


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompletedOp:
    """One finished client operation and its observable outcome."""

    kind: str  # "read" | "write"
    register: RegisterName
    value: Any
    replica: ReplicaId
    time: float
    uid: Optional[UpdateId] = None


@dataclass
class _OutstandingOp:
    """The client's single in-flight operation (clients are sequential)."""

    kind: str  # "read" | "write"
    register: RegisterName
    value: Any
    request_id: int
    replica: ReplicaId
    attempts: int = 1


class CSClient:
    """A sequential client bound to the replica set ``R_c``."""

    #: Replica-selection strategies for operations with several candidate
    #: replicas: "random" spreads load, "sticky" always picks the same
    #: replica per register (fewer session stalls -- the chosen replica is
    #: never behind this client's past for that register), "round-robin"
    #: rotates deterministically.
    SELECTION_STRATEGIES = ("random", "sticky", "round-robin")

    def __init__(
        self,
        client_id: ClientId,
        graph: ShareGraph,
        assignment: ClientAssignment,
        edges: FrozenSet[Edge],
        network: Network,
        history: Optional[History] = None,
        think_time: float = 0.0,
        selection: str = "random",
        timeout: Optional[float] = None,
        max_retries: int = 8,
        retry_backoff: float = 2.0,
    ) -> None:
        if selection not in self.SELECTION_STRATEGIES:
            raise ConfigurationError(
                f"unknown selection strategy {selection!r}; choose from "
                f"{self.SELECTION_STRATEGIES}"
            )
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be positive, got {timeout}")
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {max_retries}"
            )
        if retry_backoff < 1.0:
            raise ConfigurationError(
                f"retry_backoff must be >= 1, got {retry_backoff}"
            )
        self.client_id = client_id
        self.graph = graph
        self.replica_set = assignment.replicas_of(client_id)
        self.timestamp = Timestamp.zeros(edges)
        self.network = network
        self.history = history
        self.think_time = think_time
        self.selection = selection
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.queue: List[Tuple[str, RegisterName, Any]] = []
        self.completed: List[CompletedOp] = []
        self.retries = 0
        self.failovers = 0
        self._outstanding: Optional[_OutstandingOp] = None
        self._timer: Optional[EventHandle] = None
        self._request_id = 0
        self._rr_counter = 0
        network.register(client_id, self.on_message)

    def enqueue_read(self, register: RegisterName) -> None:
        self._validate(register)
        self.queue.append(("read", register, None))

    def enqueue_write(self, register: RegisterName, value: Any) -> None:
        self._validate(register)
        self.queue.append(("write", register, value))

    def _validate(self, register: RegisterName) -> None:
        if not self._candidates(register):
            raise UnknownRegisterError(register, self.client_id)

    def _candidates(self, register: RegisterName) -> List[ReplicaId]:
        return sorted(
            (
                r
                for r in self.replica_set
                if register in self.graph.registers_at(r)
            ),
            key=lambda v: (str(type(v)), repr(v)),
        )

    def start(self) -> None:
        """Begin executing the queued operations (call before ``run``)."""
        self._send_next()

    def _send_next(self) -> None:
        if self._outstanding is not None or not self.queue:
            return
        kind, register, value = self.queue.pop(0)
        self._request_id += 1
        self._outstanding = _OutstandingOp(
            kind, register, value, self._request_id, self._select(register)
        )
        self._transmit()

    def _select(self, register: RegisterName) -> ReplicaId:
        candidates = self._candidates(register)
        if self.selection == "sticky":
            return candidates[0]
        if self.selection == "round-robin":
            replica = candidates[self._rr_counter % len(candidates)]
            self._rr_counter += 1
            return replica
        return self.network.simulator.rng.choice(candidates)

    def _transmit(self) -> None:
        op = self._outstanding
        assert op is not None
        if op.kind == "read":
            message: Any = ReadRequest(
                self.client_id, op.register, self.timestamp,
                request_id=op.request_id,
            )
        else:
            message = WriteRequest(
                self.client_id, op.register, op.value, self.timestamp,
                request_id=op.request_id,
            )
        self.network.send(
            self.client_id, op.replica, message,
            metadata_counters=len(self.timestamp),
        )
        if self.timeout is not None:
            delay = self.timeout * self.retry_backoff ** (op.attempts - 1)
            self._timer = self.network.simulator.schedule(
                delay, self._on_timeout, op.request_id
            )

    def _on_timeout(self, request_id: int) -> None:
        op = self._outstanding
        if op is None or op.request_id != request_id:
            return  # the response arrived; this timer is stale
        if op.attempts > self.max_retries:
            raise RetryExhaustedError(
                f"client {self.client_id!r} {op.kind}({op.register!r}) "
                f"to replica {op.replica!r}",
                op.attempts,
            )
        op.attempts += 1
        self.retries += 1
        if op.kind == "read":
            # Reads are idempotent, so fail over to the next candidate
            # replica.  Writes retry against the same replica: its dedup
            # cache makes the retry exactly-once, whereas a different
            # replica would execute the write a second time.
            candidates = self._candidates(op.register)
            next_replica = candidates[
                (candidates.index(op.replica) + 1) % len(candidates)
            ]
            if next_replica != op.replica:
                self.failovers += 1
                op.replica = next_replica
        self._transmit()

    def on_message(self, src: ReplicaId, message: Any) -> None:
        op = self._outstanding
        if op is None or message.request_id != op.request_id:
            if self.timeout is None:  # pragma: no cover - wiring guard
                raise ProtocolError("response without outstanding request")
            # Duplicate response, or a late response to a request we have
            # already completed via a retry -- the merge already happened.
            return
        kind, register = op.kind, op.register
        # A late response may come from an earlier attempt's replica, so
        # attribute the completion to the actual sender.
        replica = src
        self._outstanding = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        now = self.network.simulator.now
        # merge1 = merge2: element-wise max over the replica's index.
        counters = {
            e: max(self.timestamp[e], message.timestamp.get(e, 0))
            if e in message.timestamp
            else self.timestamp[e]
            for e in self.timestamp.index
        }
        self.timestamp = Timestamp(counters)
        if self.history is not None:
            # The access is logged at acceptance, against the replica's
            # serve-time snapshot: the client's causal past grows by
            # exactly what this response's timestamp conveyed.
            self.history.record_client_access(
                self.client_id, replica, now, token=message.access_token
            )
        if isinstance(message, ReadResponse):
            self.completed.append(
                CompletedOp("read", register, message.value, replica, now)
            )
        elif isinstance(message, WriteResponse):
            self.completed.append(
                CompletedOp(
                    "write", register, None, replica, now, uid=message.uid
                )
            )
        else:  # pragma: no cover - wiring guard
            raise ProtocolError(f"unexpected response {message!r}")
        if self.queue:
            self.network.simulator.schedule(self.think_time, self._send_next)

    @property
    def done(self) -> bool:
        return not self.queue and self._outstanding is None

    def __repr__(self) -> str:
        return f"CSClient({self.client_id!r}, {len(self.queue)} queued)"


# ----------------------------------------------------------------------
# System wiring
# ----------------------------------------------------------------------
class ClientServerSystem(_AdapterSet):
    """A complete simulated client-server DSM (Figure 1b)."""

    def __init__(
        self,
        placements: Mapping[ReplicaId, Any],
        clients: Mapping[ClientId, Any],
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        max_loop_len: Optional[int] = None,
        think_time: float = 0.0,
        selection: str = "random",
        fault_plan: Optional[FaultPlan] = None,
        timeout: Optional[float] = None,
        max_retries: int = 8,
        retry_backoff: float = 2.0,
        batch_window: float = 0.0,
        batch_max: int = 64,
    ) -> None:
        self.graph = (
            placements
            if isinstance(placements, ShareGraph)
            else ShareGraph(placements)
        )
        if batch_window > 0 and fault_plan is not None:
            # As in DSMSystem: the ARQ layer acks individual updates and
            # cannot confirm members of a coalesced frame.
            raise ConfigurationError(
                "batch_window requires reliable channels (no fault_plan)"
            )
        self.assignment = ClientAssignment(self.graph, clients)
        self.simulator = Simulator(seed=seed)
        if fault_plan is not None:
            if not fault_plan.trivial and timeout is None:
                raise ConfigurationError(
                    "a fault plan with loss or duplication requires a client "
                    "timeout, otherwise dropped requests stall forever"
                )
            # Split recovery responsibilities: replica-to-replica updates
            # ride the ARQ layer (a lost Update would stall dependent
            # sessions at every candidate replica), while client traffic
            # stays raw -- the session layer (request ids, timeouts,
            # retries, failover) is its end-to-end recovery mechanism.
            self.network: Network = ReliableNetwork(
                self.simulator,
                delay_model=delay_model,
                plan=fault_plan,
                ack_policy="on_receipt",
                raw_nodes=self.assignment.clients,
            )
        else:
            self.network = Network(self.simulator, delay_model=delay_model)
        self.history = History()
        graphs = all_augmented_timestamp_graphs(
            self.graph, self.assignment, max_loop_len=max_loop_len
        )
        self.replicas: Dict[ReplicaId, CSReplica] = {
            rid: CSReplica(
                rid,
                self.graph,
                graphs[rid].edges,
                self.network,
                self.history,
                batch_window=batch_window,
                batch_max=batch_max,
            )
            for rid in self.graph.replicas
        }
        self.clients: Dict[ClientId, CSClient] = {}
        for cid in self.assignment.clients:
            edges: Set[Edge] = set()
            for r in self.assignment.replicas_of(cid):
                edges |= graphs[r].edges
            self.clients[cid] = CSClient(
                cid,
                self.graph,
                self.assignment,
                frozenset(edges),
                self.network,
                history=self.history,
                think_time=think_time,
                selection=selection,
                timeout=timeout,
                max_retries=max_retries,
                retry_backoff=retry_backoff,
            )

    def client(self, client_id: ClientId) -> CSClient:
        try:
            return self.clients[client_id]
        except KeyError:
            raise ConfigurationError(f"no client {client_id!r}") from None

    def replica(self, replica_id: ReplicaId) -> CSReplica:
        try:
            return self.replicas[replica_id]
        except KeyError:
            raise ConfigurationError(f"no replica {replica_id!r}") from None

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Start every client's program and run the simulation."""
        for client in self.clients.values():
            client.start()
        self.simulator.run(until=until, max_events=max_events)

    def all_clients_done(self) -> bool:
        """Liveness clause 2 of Definition 26: every request returned."""
        return all(c.done for c in self.clients.values())

    # -- global stabilization (repro.gst plumbing) -----------------------
    def metadata_counters(self) -> Dict[ReplicaId, int]:
        """Timestamp length per replica under the augmented timestamp graph."""
        return {rid: len(r.edges) for rid, r in self.replicas.items()}

    def metrics(self) -> Dict[ReplicaId, ReplicaMetrics]:
        """The shared engine's streaming per-replica metrics (issues,
        applies, pending high-water, apply delays), keyed by replica."""
        return {rid: r.metrics for rid, r in self.replicas.items()}

    def __repr__(self) -> str:
        return (
            f"ClientServerSystem({len(self.replicas)} replicas, "
            f"{len(self.clients)} clients)"
        )
