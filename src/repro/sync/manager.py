"""Anti-entropy state transfer between replicas.

:class:`SyncManager` wires into an assembled
:class:`~repro.core.system.DSMSystem` and turns two local signals --
"this sender is far ahead of my delivery frontier" (gap) and "my pending
buffer hit its cap" (overflow) -- into a *state transfer*: the lagging
replica receives a causally consistent snapshot from the best-caught-up
neighbour, installs it atomically, and resumes normal predicate-J
delivery from the spliced frontier.

The transfer path is deliberately end-to-end:

1. compute the install set and per-sender frontiers from the *history*
   (the same ground truth the checker replays, never protocol metadata);
2. audit the install set with
   :func:`repro.checker.frontier_closure_violations` -- a transfer that
   would fabricate a safety violation fails loudly at the source;
3. round-trip the snapshot through the wire codec
   (:func:`repro.wire.encode_state_snapshot`), so snapshot bytes are
   accounted and the installed state is exactly what the wire carries;
4. settle the channel layer: covered volatile deliveries are acked
   (:meth:`~repro.network.faults.ReliableNetwork.sync_commit`), covered
   retransmit-log entries compacted
   (:meth:`~repro.network.faults.ReliableNetwork.compact_retransmit_log`);
5. install store + spliced timestamp + value debts at the replica.

Requests are *debounced*: escalation signals fire from inside message
handling, so the manager never transfers synchronously -- it schedules
the transfer ``sync_delay`` later (modelling the request round-trip) and
collapses repeated signals for the same replica into one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.system import DSMSystem
from repro.errors import ProtocolError
from repro.checker.check import frontier_closure_violations
from repro.sync.snapshot import (
    StateSnapshot,
    delivery_frontiers,
    install_set,
    spliced_timestamp,
    value_debts,
)
from repro.types import ReplicaId
from repro.wire.codec import (
    canonical_edge_order,
    decode_state_snapshot,
    encode_state_snapshot,
    timestamp_wire_bytes,
)

TraceHook = Callable[[float, str, str], None]


@dataclass
class SyncStats:
    """Manager-level accounting for one run."""

    requests: int = 0
    transfers: int = 0
    updates_installed: int = 0
    snapshot_bytes: int = 0
    skipped: int = 0  # requests that found no donor or no gain
    value_fetches: int = 0  # debts paid from a register holder's store


class SyncManager:
    """Escalation-driven anti-entropy for one :class:`DSMSystem`.

    Parameters
    ----------
    system:
        The assembled system; every replica is wired on construction.
    pending_cap:
        Per-replica bound on the pending buffer.  Reaching it sheds the
        buffer (channel state rolls back, nothing is lost) and escalates
        here.  ``None`` disables backpressure.
    gap_threshold:
        Escalate when an arriving update's sender-edge sequence runs this
        far ahead of the next deliverable one (the signature a truncated
        retransmit log leaves behind).  ``None`` disables gap detection.
    sync_delay:
        Virtual-time latency between an escalation signal and the
        transfer (request round-trip + snapshot construction).
    trace:
        Optional ``(now, kind, detail)`` hook; the chaos harness uses it
        to build per-trial timelines.
    """

    def __init__(
        self,
        system: DSMSystem,
        pending_cap: Optional[int] = None,
        gap_threshold: Optional[int] = None,
        sync_delay: float = 1.0,
        trace: Optional[TraceHook] = None,
    ) -> None:
        self.system = system
        self.sync_delay = sync_delay
        self.trace = trace
        self.stats = SyncStats()
        self._scheduled: Set[ReplicaId] = set()
        self._replica_by_name = {str(r): r for r in system.graph.replicas}
        self._register_by_name = {str(x): x for x in system.graph.registers}
        for replica in system.replicas.values():
            replica.pending_cap = pending_cap
            replica.gap_threshold = gap_threshold
            replica.on_sync_needed = self._request

    # ------------------------------------------------------------------
    # Escalation entry point (called from inside Replica.on_message)
    # ------------------------------------------------------------------
    def _request(self, replica_id: ReplicaId, reason: str) -> None:
        self.stats.requests += 1
        self._trace(f"sync requested by {replica_id!r} ({reason})")
        if replica_id in self._scheduled:
            return
        self._scheduled.add(replica_id)
        self.system.simulator.schedule(
            self.sync_delay, self._perform, replica_id, reason
        )

    def _perform(self, replica_id: ReplicaId, reason: str) -> None:
        self._scheduled.discard(replica_id)
        receiver = self.system.replicas[replica_id]
        if receiver.crashed:
            # Recovery will re-trigger escalation via the first stale or
            # gapped retransmission it receives.
            self.stats.skipped += 1
            return
        donor = self._pick_donor(replica_id)
        if donor is None:
            self.stats.skipped += 1
            self._trace(f"no donor for {replica_id!r} ({reason})")
            return
        installed = self._transfer(donor, replica_id)
        if installed == 0:
            self.stats.skipped += 1

    # ------------------------------------------------------------------
    # Donor selection
    # ------------------------------------------------------------------
    def _pick_donor(self, receiver: ReplicaId) -> Optional[ReplicaId]:
        """The reachable neighbour whose transfer installs the most."""
        system = self.system
        history = system.history
        graph = system.graph
        plan = getattr(system.network, "plan", None)
        now = system.simulator.now
        best: Optional[ReplicaId] = None
        best_gain = 0
        for donor in graph.neighbors(receiver):
            if system.replicas[donor].crashed:
                continue
            if plan is not None and (
                plan.blacked_out(donor, receiver, now)
                or plan.blacked_out(receiver, donor, now)
            ):
                continue
            gain = len(install_set(history, graph, donor, receiver))
            if gain > best_gain or (
                gain == best_gain and gain > 0 and str(donor) < str(best)
            ):
                best, best_gain = donor, gain
        return best

    # ------------------------------------------------------------------
    # The transfer itself
    # ------------------------------------------------------------------
    def build_snapshot(
        self, donor: ReplicaId, receiver: ReplicaId
    ) -> StateSnapshot:
        """Assemble (but do not install) a donor's snapshot for a receiver."""
        system = self.system
        history, graph = system.history, system.graph
        donor_rep = system.replicas[donor]
        receiver_rep = system.replicas[receiver]
        installs = install_set(history, graph, donor, receiver)
        frontiers = delivery_frontiers(history, graph, donor, receiver)
        store = tuple(
            sorted(
                (
                    (x, v)
                    for x, v in donor_rep.store.items()
                    if x in receiver_rep.store
                ),
                key=lambda kv: str(kv[0]),
            )
        )
        return StateSnapshot(
            donor=donor,
            receiver=receiver,
            store=store,
            timestamp=donor_rep.timestamp,
            frontiers=tuple(sorted(frontiers.items(), key=lambda kv: str(kv[0]))),
            installs=installs,
        )

    def _transfer(self, donor: ReplicaId, receiver: ReplicaId) -> int:
        system = self.system
        history, graph = system.history, system.graph
        receiver_rep = system.replicas[receiver]
        now = system.simulator.now
        snapshot = self.build_snapshot(donor, receiver)
        installs = snapshot.installs
        if not installs:
            self._trace(f"{donor!r} -> {receiver!r}: nothing to transfer")
            return 0

        # Defence in depth: the install set is constructed causally closed;
        # verify against the history before touching any state.
        violations = frontier_closure_violations(
            history, graph, receiver, installs
        )
        if violations:
            raise ProtocolError(
                f"sync {donor!r} -> {receiver!r} would splice a causally "
                f"open set: {violations[:3]!r}"
            )

        # Round-trip through the wire codec: the installed state is what
        # the bytes carry, and the bytes are what accounting sees.
        order = canonical_edge_order(snapshot.timestamp.index)
        blob = encode_state_snapshot(
            dict(snapshot.store),
            snapshot.timestamp,
            dict(snapshot.frontiers),
            order,
        )
        store, donor_ts, frontiers = decode_state_snapshot(
            blob, order, self._replica_by_name, self._register_by_name
        )
        self.stats.snapshot_bytes += len(blob)

        new_ts = spliced_timestamp(
            receiver_rep.timestamp, donor_ts, frontiers, receiver
        )
        merged_frontier: Dict[ReplicaId, int] = {}
        for sender, frontier in frontiers.items():
            own = receiver_rep.timestamp.get((sender, receiver))
            if own is not None:
                merged_frontier[sender] = max(own, frontier)

        # A snapshot store value may only land if the donor's history is
        # at least as new as the receiver's on that register: the donor's
        # value is the last write *it* applied, so if the receiver's own
        # latest write (possibly still store-less -- an unpaid debt) is
        # outside the donor's closure, adopting would regress the store
        # below the receiver's applied frontier.  Dropped registers keep
        # the receiver's value (and any debt) instead.
        donor_closure = history.frontier(donor)
        receiver_latest = _latest_store_writes(history, receiver)
        safe_store = {}
        for x, v in store.items():
            r_latest = receiver_latest.get(x)
            if r_latest is None or history.holds(donor_closure, r_latest):
                safe_store[x] = v

        # Debts must be known *before* channel settlement: the segments
        # that will pay them (the debt updates' own retransmissions) sit
        # at or below the frontier and would otherwise be acked away here
        # and compacted out of the senders' logs below -- making every
        # debt permanently unpayable.  Registers the donor shipped but
        # the receiver kept its own (concurrent) value for need no debt.
        outstanding = receiver_rep.value_debt
        debts = value_debts(history, installs, set(store), receiver_rep.store)
        final_debts = dict(outstanding)
        for x in safe_store:
            final_debts.pop(x, None)
        final_debts.update(debts)
        protected = set(final_debts.values())

        def covered(sender: ReplicaId, payload: Any) -> bool:
            limit = merged_frontier.get(sender)
            ts = getattr(payload, "timestamp", None)
            if limit is None or ts is None:
                return False
            if getattr(payload, "uid", None) in protected:
                # Carries a debt register's value: keep it unacked and in
                # its sender's retransmit log so the stale redelivery can
                # pay the debt (it is acked then, via confirm_applied).
                return False
            seq = ts.get((sender, receiver))
            return seq is not None and seq <= limit

        # Channel settlement must precede the install: installing sheds
        # the pending buffer, which rolls the volatile channel state back
        # -- after that there is nothing left to ack.
        sync_commit = getattr(system.network, "sync_commit", None)
        if sync_commit is not None:
            sync_commit(receiver, covered)

        # The history records the splice as ordinary applies, in global
        # issue order -- a topological order of happened-before, so the
        # checker replays the spliced prefix exactly like a lived one.
        for uid in installs:
            history.record_apply(receiver, uid, now)

        receiver_rep.install_sync_state(new_ts, safe_store, debts)

        # The snapshot superseded every covered in-flight segment: compact
        # the senders' retransmit logs so they stop paying for them.
        compact = getattr(system.network, "compact_retransmit_log", None)
        if compact is not None:
            for sender in graph.neighbors(receiver):
                compact(
                    sender,
                    receiver,
                    lambda payload, s=sender: covered(s, payload),
                    size_of=_payload_wire_bytes,
                )

        self.stats.transfers += 1
        installed = len(installs)
        self.stats.updates_installed += installed
        self._trace(
            f"sync {donor!r} -> {receiver!r}: {installed} updates, "
            f"{len(blob)} snapshot bytes"
        )
        return installed

    # ------------------------------------------------------------------
    # Convergence sweep (post-fault catch-up)
    # ------------------------------------------------------------------
    def reconcile(self) -> int:
        """Transfer between every useful pair until no transfer helps.

        Used by the harness after the fault horizon: replicas that shed
        or missed updates whose senders' logs were truncated can only
        converge via state transfer.  Each round installs at least one
        update or stops, so termination is bounded by the total number of
        issued updates.
        """
        system = self.system
        graph = system.graph
        total = 0
        progress = True
        while progress:
            progress = False
            for receiver in graph.replicas:
                if system.replicas[receiver].crashed:
                    continue
                donor = self._pick_donor(receiver)
                if donor is None:
                    continue
                installed = self._transfer(donor, receiver)
                if installed:
                    total += installed
                    progress = True
        self.settle_value_debts()
        return total

    def settle_value_debts(self) -> int:
        """Pay outstanding value debts from register holders' stores.

        A debt is normally paid by the debt update's own (stale)
        retransmission -- but that segment may have been truncated out of
        its sender's log by ``unacked_cap`` *before* the transfer, in
        which case no redelivery will ever arrive.  The fallback source
        is any reachable replica that stores the register and whose
        latest write on it *is* the debt update: its store holds exactly
        the owed value.  At the reconcile fixpoint such a holder always
        exists (the debt update's issuer stores the register; had anyone
        written it later, that newer write would have reached the
        receiver -- by channel or by transfer -- and superseded the
        debt), so reconciliation leaves no debt behind.
        """
        system = self.system
        history, graph = system.history, system.graph
        plan = getattr(system.network, "plan", None)
        now = system.simulator.now
        paid = 0
        for receiver in graph.replicas:
            receiver_rep = system.replicas[receiver]
            if receiver_rep.crashed:
                continue
            for register, uid in sorted(
                receiver_rep.value_debt.items(), key=lambda kv: str(kv[0])
            ):
                for holder in sorted(
                    graph.replicas_storing(register), key=str
                ):
                    holder_rep = system.replicas[holder]
                    if (
                        holder == receiver
                        or holder_rep.crashed
                        or register not in holder_rep.store
                        or register in holder_rep.value_debt
                    ):
                        continue
                    if plan is not None and (
                        plan.blacked_out(holder, receiver, now)
                        or plan.blacked_out(receiver, holder, now)
                    ):
                        continue
                    holder_latest = _latest_store_writes(history, holder)
                    if holder_latest.get(register) != uid:
                        continue
                    receiver_rep.pay_value_debt(
                        register, holder_rep.store[register]
                    )
                    paid += 1
                    self.stats.value_fetches += 1
                    self._trace(
                        f"debt on {register!r} at {receiver!r} paid from "
                        f"{holder!r} ({uid})"
                    )
                    break
        return paid

    def _trace(self, detail: str) -> None:
        if self.trace is not None:
            self.trace(self.system.simulator.now, "sync", detail)

    def __repr__(self) -> str:
        return (
            f"SyncManager({self.stats.transfers} transfers, "
            f"{self.stats.updates_installed} updates installed)"
        )


def _latest_store_writes(history: Any, replica: ReplicaId) -> Dict[Any, Any]:
    """Per-register uid of the last write executed at ``replica``.

    Walks the replica's issue/apply event sequence -- execution order,
    which is what determines the store's current value -- not issue
    order, under which concurrent writes are incomparable.
    """
    latest: Dict[Any, Any] = {}
    for event in history.events:
        if event.replica != replica or event.uid is None:
            continue
        latest[history.updates[event.uid].register] = event.uid
    return latest


def _payload_wire_bytes(payload: Any) -> int:
    ts = getattr(payload, "timestamp", None)
    return timestamp_wire_bytes(ts) if ts is not None else 0
