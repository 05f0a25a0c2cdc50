"""Asyncio-based execution of the replica prototype.

Each replica is an ``asyncio`` task consuming an inbox queue; sends go
through per-message ``asyncio.sleep`` with jittered delays, so channels
are reliable but non-FIFO exactly as in Section 2's model.  Replicas are
:class:`~repro.core.engine.CoreAdapter` subclasses over the shared
sans-I/O :class:`~repro.core.engine.ProtocolCore` -- the same delivery
engine (per-sender queues, wake sets, seq-indexed candidates), the same
effect dispatcher and batch window, and the same policy objects as the
simulator runtime; only the transport (the inbox task) differs.

Wall-clock timestamps recorded into the :class:`History` are only used
for reporting; happened-before is derived from event order, which the
single-threaded asyncio loop serializes faithfully.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Set, Tuple

from repro.core.causality import History
from repro.core.engine import CoreAdapter, UpdateBatch
from repro.core.engine.adapter import _AdapterSet
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import TimestampPolicy, edge_policy_factory
from repro.errors import ConfigurationError, ProtocolError
from repro.types import RegisterName, ReplicaId, Update, UpdateId


class AioReplica(CoreAdapter):
    """One replica task: the shared protocol core behind an asyncio inbox."""

    def __init__(
        self,
        replica_id: ReplicaId,
        graph: ShareGraph,
        policy: TimestampPolicy,
        system: "AioDSMSystem",
    ) -> None:
        self.system = system
        super().__init__(
            replica_id,
            graph,
            policy,
            system.clock,
            history=system.history,
            # Flush window in loop seconds; 0 disables it.
            batch_window=system.batch_window,
            batch_max=system.batch_max,
            size_wire=False,
        )
        self.inbox: "asyncio.Queue[Tuple[ReplicaId, Any]]" = asyncio.Queue()

    # -- the skeleton's two primitives -----------------------------------
    def _transmit(
        self,
        dst: ReplicaId,
        message: Any,
        metadata_counters: int,
        wire_bytes: int,
    ) -> None:
        self.system.post(self.replica_id, dst, message)

    def _call_later(self, delay: float, fn: Callable[[], None]) -> Any:
        return asyncio.get_running_loop().call_later(delay, fn)

    @property
    def pending(self) -> List[Tuple[ReplicaId, Update]]:
        """Buffered updates as ``(sender, update)`` in arrival order."""
        return [(src, update) for src, update, _ in self.core.pending]

    # -- client operations ---------------------------------------------
    async def write(self, register: RegisterName, value: Any) -> UpdateId:
        return self.core.local_write(register, value)

    # -- update delivery -------------------------------------------------
    async def run(self) -> None:
        """Consume the inbox forever (cancelled by the system)."""
        while True:
            src, message = await self.inbox.get()
            self._deliver(src, message)
            self.system.events_processed += (
                len(message) if isinstance(message, UpdateBatch) else 1
            )
            self.system.note_progress()


@dataclass
class AioSystemMetrics:
    """Cross-replica summary of one asyncio run.

    Apply delays are *wall-clock* seconds (the loop time the update spent
    in the pending buffer), unlike the simulator's virtual seconds.
    """

    messages_sent: int
    issued: int
    applied_remote: int
    pending_high_water: int
    mean_apply_delay: float
    max_apply_delay: float
    #: Updates delivered into the protocol cores (the asyncio analogue of
    #: the simulator's executed-events counter; feeds the bench row).
    events_processed: int = 0


class AioDSMSystem(_AdapterSet):
    """A live asyncio DSM: create inside a running event loop.

    Usage::

        async def scenario():
            system = AioDSMSystem({1: {"x"}, 2: {"x"}}, seed=1)
            async with system:
                await system.replica(1).write("x", 5)
                await system.settle()
            assert system.check().ok

    Parameters
    ----------
    placements, policy_factory, seed:
        As for :class:`~repro.core.system.DSMSystem`.
    delay_range:
        Uniform per-message delay bounds in *real* seconds; keep them
        small (defaults give visible reordering without slow tests).
    """

    def __init__(
        self,
        placements: Mapping[ReplicaId, Any],
        policy_factory=None,
        seed: int = 0,
        delay_range: Tuple[float, float] = (0.001, 0.02),
        batch_window: float = 0.0,
        batch_max: int = 64,
    ) -> None:
        self.graph = (
            placements
            if isinstance(placements, ShareGraph)
            else ShareGraph(placements)
        )
        lo, hi = delay_range
        if not 0 <= lo <= hi:
            raise ConfigurationError("need 0 <= lo <= hi delay bounds")
        self.delay_range = delay_range
        self.batch_window = batch_window
        self.batch_max = batch_max
        self.rng = random.Random(seed)
        self.history = History()
        self._start = None  # set on __aenter__
        if policy_factory is None:
            policy_factory = edge_policy_factory(self.graph)
        self.replicas: Dict[ReplicaId, AioReplica] = {
            rid: AioReplica(rid, self.graph, policy_factory(self.graph, rid), self)
            for rid in self.graph.replicas
        }
        self._tasks: List[asyncio.Task] = []  # the replicas' run() loops
        # In-flight deliveries; each discards itself on completion, so a
        # long run does not retain one finished Task per message.
        self._deliveries: Set[asyncio.Task] = set()
        self._in_flight = 0
        self._progress = asyncio.Event()
        self.messages_sent = 0
        #: Protocol events handled: updates delivered into the cores (the
        #: asyncio analogue of the simulator's executed-events counter).
        self.events_processed = 0

    # -- lifecycle -------------------------------------------------------
    async def __aenter__(self) -> "AioDSMSystem":
        loop = asyncio.get_running_loop()
        self._start = loop.time()
        for replica in self.replicas.values():
            self._tasks.append(asyncio.ensure_future(replica.run()))
        return self

    async def __aexit__(self, *exc) -> None:
        await self.settle()
        tasks = [*self._tasks, *self._deliveries]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def clock(self) -> float:
        loop = asyncio.get_running_loop()
        return loop.time() - (self._start or 0.0)

    # -- transport -------------------------------------------------------
    def post(self, src: ReplicaId, dst: ReplicaId, update: Update) -> None:
        """Schedule delayed delivery of ``update`` to ``dst``'s inbox."""
        delay = self.rng.uniform(*self.delay_range)
        self.messages_sent += 1
        self._in_flight += 1

        async def deliver() -> None:
            try:
                await asyncio.sleep(delay)
                self.replicas[dst].inbox.put_nowait((src, update))
            finally:
                self._in_flight -= 1
                self.note_progress()

        task = asyncio.ensure_future(deliver())
        self._deliveries.add(task)
        task.add_done_callback(self._deliveries.discard)

    def note_progress(self) -> None:
        self._progress.set()

    # -- access & verification -------------------------------------------
    def replica(self, replica_id: ReplicaId) -> AioReplica:
        try:
            return self.replicas[replica_id]
        except KeyError:
            raise ConfigurationError(f"no replica {replica_id!r}") from None

    def quiescent(self) -> bool:
        return (
            self._in_flight == 0
            and all(r.inbox.empty() for r in self.replicas.values())
            and all(
                r.core.pending_count == 0 and r.outbox_pending == 0
                for r in self.replicas.values()
            )
        )

    async def settle(self, timeout: float = 30.0) -> None:
        """Wait until no message is in flight, queued, or pending."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not self.quiescent():
            if loop.time() > deadline:
                raise ConfigurationError(
                    "asyncio system failed to settle "
                    f"(in flight={self._in_flight})"
                )
            self._progress.clear()
            try:
                await asyncio.wait_for(
                    self._progress.wait(), timeout=max(deadline - loop.time(), 0.01)
                )
            except asyncio.TimeoutError:
                continue

    # -- global stabilization (repro.gst) --------------------------------
    async def settle_visibility(self, max_rounds: int = 0) -> int:
        """Settle, then drive stabilization rounds until all updates are
        visible (asyncio analogue of ``DSMSystem.settle_visibility``)."""
        await self.settle()
        if not self.stabilizing:
            return 0
        if max_rounds <= 0:
            max_rounds = 3 * len(self.replicas) + 5
        rounds = 0
        while not self.stable():
            if rounds >= max_rounds:
                raise ProtocolError(
                    f"visibility did not settle in {max_rounds} rounds"
                )
            self.stabilize_all()
            await self.settle()
            rounds += 1
        return rounds

    def metrics(self) -> AioSystemMetrics:
        """Aggregate the per-replica engine metrics for this run."""
        replicas = list(self.replicas.values())
        applied = sum(r.metrics.applied_remote for r in replicas)
        delay_total = sum(r.metrics.apply_delay_total for r in replicas)
        return AioSystemMetrics(
            messages_sent=self.messages_sent,
            issued=sum(r.metrics.issued for r in replicas),
            applied_remote=applied,
            pending_high_water=max(
                (r.metrics.pending_high_water for r in replicas), default=0
            ),
            mean_apply_delay=(delay_total / applied) if applied else 0.0,
            max_apply_delay=max(
                (r.metrics.apply_delay_max for r in replicas), default=0.0
            ),
            events_processed=self.events_processed,
        )
