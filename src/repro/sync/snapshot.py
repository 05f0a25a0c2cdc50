"""Causally consistent state snapshots and delivery frontiers.

The unit of anti-entropy is a :class:`StateSnapshot`: a donor's register
values, its timestamp, and one *delivery frontier* per channel into the
receiver.  The frontier for sender ``k`` is the number of ``k``'s
channel-writes (writes on a register of ``shared(k, i)``) the snapshot
covers; since each such write carries its 1-based position on edge
``e_ki`` in its timestamp, "covered" is simply ``T[e_ki] <= frontier``.

Why frontiers are safe
----------------------
The donor's causal past (its applied set closed under happened-before) is
the transfer source.  Restricted to any one sender's channel-writes it is
a *prefix* in channel order: those writes are totally ordered by
happened-before (each bumps the same counter at the issuer), and a
causally closed set cannot contain a later one without the earlier ones.
The receiver's own applied set has the same prefix property (predicate J
applies a channel exactly in order), so the union is a prefix too -- its
length is the frontier, and resuming J from it is exactly "the timestamp
is the frontier".  This is the stable-frontier idea of the global-
stabilization line of work (PAPERS.md), applied to recovery instead of
read snapshots.

All computations here read only the public :class:`History` surface --
the donor's closure *frontier* (one chain position per issuer, so
membership is one lane read) and issue order -- so the sync layer, like
the checker, never trusts protocol metadata for the set arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.core.causality import History
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import Timestamp
from repro.types import RegisterName, ReplicaId, UpdateId


@dataclass(frozen=True)
class StateSnapshot:
    """One donor's transferable state, aimed at one receiver.

    ``frontiers`` maps each of the receiver's in-neighbours ``k`` to the
    number of ``k``-channel-writes toward the receiver that the donor's
    causal past contains.  ``store`` holds only registers both sides
    store (the donor cannot supply values it does not have);
    ``installs`` lists, in issue order, the updates the receiver must
    additionally record as applied when it installs the snapshot.
    """

    donor: ReplicaId
    receiver: ReplicaId
    store: Tuple[Tuple[RegisterName, Any], ...]
    timestamp: Timestamp
    frontiers: Tuple[Tuple[ReplicaId, int], ...]
    installs: Tuple[UpdateId, ...]


def install_set(
    history: History,
    graph: ShareGraph,
    donor: ReplicaId,
    receiver: ReplicaId,
) -> Tuple[UpdateId, ...]:
    """Updates a transfer from ``donor`` must record at ``receiver``, in
    issue order.

    The donor's causal closure, restricted to the receiver's registers,
    minus what the receiver already applied.  Closure of the result (with
    the receiver's applied set) over the receiver's registers follows
    from the closure of the donor's past: any relevant dependency of an
    installed update is itself relevant and in the donor's past, hence
    installed or already applied.
    """
    registers = graph.registers_at(receiver)
    return tuple(
        uid
        for uid in history.frontier_updates(history.frontier(donor))
        if history.updates[uid].register in registers
        and receiver not in history.applied_at(uid)
    )


def delivery_frontiers(
    history: History,
    graph: ShareGraph,
    donor: ReplicaId,
    receiver: ReplicaId,
) -> Dict[ReplicaId, int]:
    """Per-sender channel-write counts inside the donor's causal past.

    For each in-neighbour ``k`` of the receiver: how many of ``k``'s
    writes on ``shared(k, receiver)`` the donor's closure contains.
    Because that restriction is a prefix of the channel order, the count
    *is* the frontier sequence number.
    """
    closure = history.frontier(donor)
    frontiers: Dict[ReplicaId, int] = {}
    for k in graph.neighbors(receiver):
        shared = graph.shared(k, receiver)
        count = 0
        for uid in history.updates_by(k):
            if not history.holds(closure, uid):
                break  # the closure holds a prefix of k's chain
            count += history.updates[uid].register in shared
        frontiers[k] = count
    return frontiers


def spliced_timestamp(
    receiver_ts: Timestamp,
    donor_ts: Timestamp,
    frontiers: Dict[ReplicaId, int],
    receiver: ReplicaId,
) -> Timestamp:
    """The timestamp the receiver resumes predicate-J delivery from.

    Element-wise max over the shared index (the ordinary ``merge`` rule:
    over-claiming a loop edge only strengthens later waits), except that
    every incoming edge ``(k, receiver)`` is pinned to the *exact* merged
    frontier -- ``max(own count, donor frontier)``, the length of the
    union prefix.  Exactness matters in both directions: a low value
    would make J re-accept a covered write (double apply), a high value
    would make J skip a write forever (deadlock).
    """
    merged: Dict[Any, int] = {}
    for edge, own in receiver_ts.items():
        other = donor_ts.get(edge)
        merged[edge] = own if other is None or other <= own else other
    for sender, frontier in frontiers.items():
        edge = (sender, receiver)
        if edge in merged:
            own = receiver_ts.get(edge, 0)
            merged[edge] = frontier if frontier > own else own
    return Timestamp(merged)


def value_debts(
    history: History,
    installs: Tuple[UpdateId, ...],
    donor_registers,
    receiver_store,
) -> Dict[RegisterName, UpdateId]:
    """Registers the snapshot advances but cannot supply a value for.

    For a register the donor does not store, the install covers its
    updates *as metadata* only.  The debt records the newest installed
    update per such register; when that update's own retransmission
    arrives (it is stale by then -- its seq is at the frontier), the
    replica pays the debt by writing the carried value to the store.
    """
    debts: Dict[RegisterName, UpdateId] = {}
    for uid in installs:
        record = history.updates[uid]
        register = record.register
        if register in donor_registers or register not in receiver_store:
            continue
        if record.metadata_only:
            continue
        debts[register] = uid  # issue order: the last one wins
    return debts
