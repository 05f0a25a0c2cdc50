"""Definition 2 checker: safety and liveness of replica-centric causality.

* **Safety**: when replica *i* applies ``u1`` (a register of ``X_i``),
  every update ``u2`` on any register of ``X_i`` with ``u2 -> u1`` must
  already have been applied at *i*.
* **Liveness**: every issued update on register ``x`` is eventually applied
  at every replica storing ``x`` (checked at quiescence).

A causal past is a frontier, one chain position per issuer
(:mod:`repro.core.causality`).  The replay keeps per replica a *covered*
frontier: per issuer, the position just before the first update relevant
to the replica (on a register it stores) not yet applied.  An apply is
safe iff the update's past is at most that in every lane, one lane
comparison; only when it is not are the missing updates listed, in issue
order, from per-(replica, issuer) lists of relevant updates.
"""

from __future__ import annotations

import sys
from copy import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.core.causality import History, lane, lane_max
from repro.core.share_graph import ShareGraph
from repro.errors import ConsistencyViolation
from repro.types import ReplicaId, UpdateId


@dataclass(frozen=True)
class SafetyViolation:
    """Replica applied ``applied`` while a causal dependency was missing."""

    replica: ReplicaId
    applied: UpdateId
    missing: UpdateId
    time: float

    def __str__(self) -> str:
        return (
            f"SAFETY at replica {self.replica!r} t={self.time:.3f}: applied "
            f"{self.applied} before its dependency {self.missing}"
        )


@dataclass(frozen=True)
class SessionViolation:
    """A client reached a replica missing part of its session causal past.

    Client-server safety (Definition 26, second clause): when a client
    accesses replica *i*, every update on a register of ``X_i`` in the
    client's causal past must already be applied at *i*.
    """

    client: object
    replica: ReplicaId
    missing: UpdateId
    time: float

    def __str__(self) -> str:
        return (
            f"SESSION at replica {self.replica!r} t={self.time:.3f}: client "
            f"{self.client!r} arrived before its dependency {self.missing}"
        )


@dataclass(frozen=True)
class LivenessViolation:
    """An update never reached a replica that stores its register."""

    replica: ReplicaId
    update: UpdateId

    def __str__(self) -> str:
        return (
            f"LIVENESS: {self.update} was never applied at replica "
            f"{self.replica!r}"
        )


@dataclass
class CheckResult:
    """Outcome of one verification pass."""

    safety: List[SafetyViolation] = field(default_factory=list)
    liveness: List[LivenessViolation] = field(default_factory=list)
    session: List[SessionViolation] = field(default_factory=list)
    updates_checked: int = 0
    applies_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.safety and not self.liveness and not self.session

    @property
    def violations(self) -> List[object]:
        return [*self.safety, *self.session, *self.liveness]

    def raise_on_violation(self) -> None:
        """Raise :class:`ConsistencyViolation` unless the result is clean."""
        if not self.ok:
            raise ConsistencyViolation(self.violations)

    def __str__(self) -> str:
        if self.ok:
            return (
                f"OK ({self.updates_checked} updates, "
                f"{self.applies_checked} applies checked)"
            )
        lines = [
            f"{len(self.safety)} safety / {len(self.session)} session / "
            f"{len(self.liveness)} liveness violations:"
        ]
        lines += [f"  {v}" for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


#: A covered lane with no relevant update left to miss.
_ALL = 0x7FFFFFFF

#: Per lane slot: one replica's relevant updates of that issuer, in order.
Relevance = List[List[int]]


def _positions(history: History) -> Dict[object, Dict[int, List[int]]]:
    """Per register, per issuer slot: its updates, in issue order."""
    out: Dict[object, Dict[int, List[int]]] = {}
    for i, (s, record) in enumerate(zip(history.slots, history.updates.values())):
        out.setdefault(record.register, {}).setdefault(s, []).append(i)
    return out


def _relevance(positions, registers, width: int) -> Relevance:
    rel: Relevance = [[] for _ in range(width)]
    for x in registers:
        for s, updates in positions.get(x, {}).items():
            rel[s] += updates
    for updates in rel:
        updates.sort()
    return rel


class _Cover:
    """The relevant updates one replica holds (applied, or visible), as a
    covered frontier.

    ``rel[s]`` lists slot ``s``'s updates relevant to the replica, in
    chain order, and ``next[s]`` indexes the first one not seen; in lane
    ``s``, ``lanes`` reads the chain position just before it.  ``taken``
    numbers the updates the replica took, in order: a cover sees the first
    ``upto`` of them (all, or those taken before a serve).
    """

    __slots__ = ("rel", "seqs", "taken", "upto", "next", "lanes")

    def __init__(self, rel, seqs, taken) -> None:
        self.rel, self.seqs, self.taken, self.upto = rel, seqs, taken, sys.maxsize
        self.next = [self._skip(s, 0) for s in range(len(rel))]
        self.lanes = sum(self._covered(s) << (s << 5) for s in range(len(rel)))

    def _skip(self, s: int, k: int) -> int:
        rel, taken, upto = self.rel[s], self.taken, self.upto
        while k < len(rel) and taken.get(rel[k], upto) < upto:
            k += 1
        return k

    def _covered(self, s: int) -> int:
        rel, k = self.rel[s], self.next[s]
        return self.seqs[rel[k]] - 1 if k < len(rel) else _ALL

    def take(self, s: int, i: int) -> None:
        """Hold update ``i``, issued by slot ``s``."""
        self.taken[i] = len(self.taken)
        rel, k = self.rel[s], self.next[s]
        if k < len(rel) and rel[k] == i:
            self.next[s] = self._skip(s, k + 1)
            self.lanes += (self._covered(s) - self.seqs[i] + 1) << (s << 5)

    def missing(self, past: int) -> List[int]:
        """The relevant updates in ``past`` not seen, in issue order."""
        out: List[int] = []
        taken, upto, seqs = self.taken, self.upto, self.seqs
        for s, rel in enumerate(self.rel):
            limit, k = lane(past, s), self.next[s]
            while k < len(rel) and seqs[rel[k]] <= limit:
                if taken.get(rel[k], upto) >= upto:
                    out.append(rel[k])
                k += 1
        return sorted(out)

    def snapshot(self) -> "_Cover":
        """This cover as it stands, unmoved by later takes."""
        twin = copy(self)
        twin.next = list(self.next)
        twin.upto = len(self.taken)
        return twin


def check_history(
    history: History,
    graph: ShareGraph,
    require_liveness: bool = True,
    max_violations: int = 1000,
    visibility: bool = False,
) -> CheckResult:
    """Verify Definition 2 over a finished (or mid-flight) history.

    Parameters
    ----------
    history:
        The issue/apply log recorded by the system.
    graph:
        The share graph the run executed against.  For dummy-register runs
        pass the *augmented* graph -- metadata applies are real applies for
        the happened-before relation.
    require_liveness:
        Liveness only holds at quiescence; disable mid-run.
    visibility:
        Check runs under a *stabilizing* policy (GST).  Such policies
        apply in per-channel FIFO order -- which legitimately violates
        Definition 2 at apply events -- and restore causal safety at the
        visibility cut.  With ``visibility=True`` safety is verified at
        ``"visible"`` events against per-replica *visible* sets (apply
        and issue events still feed the session-closure bookkeeping but
        are not themselves judged), and liveness requires every update to
        become visible (not merely applied) at every storing replica.
    max_violations:
        Stop collecting after this many findings (the run is already
        broken; keep reports readable).
    """
    result = CheckResult(updates_checked=len(history.updates))
    width = len(history.replicas)
    top = history.top
    order, index, closures = history.order, history.index, history.closures
    slots, seqs = history.slots, history.seqs

    # Relevance is assembled from per-register lists built in one pass.
    positions = _positions(history)
    relevant: Dict[ReplicaId, Relevance] = {
        r: _relevance(positions, graph.registers_at(r), width)
        for r in graph.replicas
    }
    nothing: Relevance = [[] for _ in range(width)]

    def new_cover(covers: Dict[ReplicaId, _Cover], rep: ReplicaId) -> _Cover:
        cover = covers[rep] = _Cover(relevant.get(rep, nothing), seqs, {})
        return cover

    def report(found: List, cover: _Cover, past: int, make) -> None:
        missing = cover.missing(past)[: max_violations - len(found)]
        found += [make(order[j]) for j in missing]

    applied: Dict[ReplicaId, _Cover] = {}
    visible: Dict[ReplicaId, _Cover] = {}
    # Sessions: closures replayed per replica, and the applied state each
    # serve-time token names, snapshotted when the replay reaches it.
    sessions = bool(history.accesses)
    closure: Dict[ReplicaId, int] = {}
    visible_closure: Dict[ReplicaId, int] = {}
    client_front: Dict[object, int] = {}
    wanted: Dict[int, List[ReplicaId]] = {}
    for e in (history.events[p] for p in history.accesses):
        if e.token is not None:
            wanted.setdefault(e.token.position, []).append(e.replica)
    served: Dict[Tuple[int, ReplicaId], _Cover] = {}

    for event in history.events:
        position = event.position
        if wanted and position in wanted:
            for r in wanted.pop(position):
                cover = applied.get(r) or new_cover(applied, r)
                served[position, r] = cover.snapshot()
        rep = event.replica
        kind = event.kind
        if kind == "access":
            # Client-server session safety: the client's causal past,
            # restricted to registers of X_rep, must be applied at rep.
            # An event with a serve-time token (lossy channels: the access
            # is logged when the client accepts the travelled response) is
            # judged against the replica state that produced the response,
            # not the replica's state at acceptance time.
            # Under a stabilizing policy reads serve the *visible* store,
            # so session guarantees are judged (and the client's past
            # grown) against the visible state.  Serve-time tokens still
            # snapshot applied state -- lossy-channel client-server runs
            # use non-stabilizing policies.
            client = event.client
            past = client_front.get(client, 0)
            token = event.token
            if token is not None:
                cover = served[token.position, rep]
                growth = token.closure
            elif visibility:
                cover = visible.get(rep) or new_cover(visible, rep)
                growth = visible_closure.get(rep, 0)
            else:
                cover = applied.get(rep) or new_cover(applied, rep)
                growth = closure.get(rep, 0)
            if ((cover.lanes | top) - past) & top != top:
                report(
                    result.session, cover, past,
                    lambda m: SessionViolation(client, rep, m, event.time),
                )
            client_front[client] = lane_max(past, growth, top)
            continue
        if kind == "visible":
            # Only meaningful under a stabilizing policy; a non-visibility
            # check over a history that happens to carry visible events
            # (mixed-policy runs) ignores them -- applies already passed.
            if not visibility:
                continue
            covers, grown = visible, visible_closure
        else:
            covers, grown = applied, closure
        uid = event.uid
        i = index[uid]
        s = slots[i]
        cover = covers.get(rep) or new_cover(covers, rep)
        if visibility == (kind == "visible"):
            past = closures[i] - (1 << (s << 5))
            if ((cover.lanes | top) - past) & top != top:
                report(
                    result.safety, cover, past,
                    lambda m: SafetyViolation(rep, uid, m, event.time),
                )
            result.applies_checked += 1
        cover.take(s, i)
        if sessions:
            grown[rep] = lane_max(grown.get(rep, 0), closures[i], top)

    if require_liveness:
        reached_by = history.applied_by
        if visibility:
            reached_by = [history.visible_by.get(i, 0) for i in range(len(order))]
        # Per register, the bits of its holders' slots; one never seen
        # has no slot and gets bit ``width``, which nothing reaches.
        wanted_by: Dict[object, int] = {}
        for i, record in enumerate(history.updates.values()):
            x = record.register
            if x not in wanted_by:
                holders = graph.replicas_storing(x)
                bits = {history.slot_of.get(r, width) for r in holders}
                wanted_by[x] = sum(1 << b for b in bits)
            if not wanted_by[x] & ~reached_by[i]:
                continue
            uid = record.uid
            done = history.visible_at(uid) if visibility else history.applied_at(uid)
            for r in sorted(
                graph.replicas_storing(x) - done,
                key=lambda v: (str(type(v)), repr(v)),
            ):
                if len(result.liveness) >= max_violations:
                    break
                result.liveness.append(LivenessViolation(r, uid))
    return result


def frontier_closure_violations(
    history: History,
    graph: ShareGraph,
    replica: ReplicaId,
    installs: Iterable[UpdateId],
    max_violations: int = 20,
) -> List[Tuple[UpdateId, UpdateId]]:
    """Audit a proposed snapshot install set before it is spliced in.

    The anti-entropy layer may only install a set ``S`` of updates at
    ``replica`` if ``S`` together with what the replica already applied is
    *causally closed over the replica's registers*: for every ``u in S``,
    every ``u2 -> u`` on a register of ``X_replica`` is applied or in
    ``S``.  Otherwise recording the installs would fabricate the exact
    safety violation the checker exists to catch.  Returns ``(installed,
    missing-dependency)`` pairs in issue order; empty means the splice is
    safe.

    This is defence in depth: :func:`repro.sync.snapshot.install_set`
    constructs ``S`` as an intersection with the donor's (transitively
    closed) causal past, which is provably closed -- the sync manager
    still runs this audit on every transfer so a future regression fails
    loudly at the source rather than as a checker verdict much later.
    """
    width = len(history.replicas)
    top = history.top
    bit = 1 << history.slot_of.get(replica, width)
    ordered = sorted(history.index[uid] for uid in installs)
    applied = [i for i, by in enumerate(history.applied_by) if by & bit]
    rel = _relevance(_positions(history), graph.registers_at(replica), width)
    cover = _Cover(rel, history.seqs, dict.fromkeys(applied + ordered, 0))
    out: List[Tuple[UpdateId, UpdateId]] = []
    for i in ordered:
        past = history.past(i)
        if ((cover.lanes | top) - past) & top != top:
            out += [(history.order[i], history.order[j]) for j in cover.missing(past)]
    return out[:max_violations]
