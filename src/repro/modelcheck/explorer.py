"""State-space exploration of the replica prototype.

The model: each replica runs a fixed *program* (a sequence of writes);
the adversary chooses, at every step, either some replica's next write or
the application of some deliverable update.  Channels and pending buffers
are merged into one "in flight" multiset -- an update can be applied at
its destination whenever predicate J holds, which is exactly the
prototype's observable semantics (buffering order is invisible).

States are deduplicated structurally, so the exploration is over the
reachable state *graph*, not the (factorially larger) execution tree.

Safety is checked at every application event (an update's causal past,
restricted to the destination's registers, must be applied there);
terminal states with undeliverable updates, or with programs finished but
updates never applicable, are liveness violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.share_graph import ShareGraph
from repro.core.timestamp import (
    Timestamp,
    TimestampPolicy,
    edge_policy_factory,
)
from repro.errors import ConfigurationError
from repro.types import RegisterName, ReplicaId, UpdateId

#: One replica's client program: the registers it writes, in order.
Program = Sequence[RegisterName]

# A message in flight: (destination, uid, register, sender timestamp,
# causal past of the update as a frozenset of uids).
_Message = Tuple[ReplicaId, UpdateId, RegisterName, Timestamp, FrozenSet[UpdateId]]

# Replica-local state: (timestamp, strictly applied updates, causal
# closure of the applied updates, next program index).  The closure is
# needed because Definition 1's happened-before is transitive: an update's
# causal past includes updates the issuer never applied directly.
_ReplicaState = Tuple[Timestamp, FrozenSet[UpdateId], FrozenSet[UpdateId], int]

# Global state: per-replica states (in replica order) + in-flight tuple.
_State = Tuple[Tuple[_ReplicaState, ...], Tuple[_Message, ...]]


@dataclass(frozen=True)
class ModelViolation:
    """One bad state found during exploration."""

    kind: str  # "safety" | "liveness"
    replica: ReplicaId
    detail: str


@dataclass
class ModelCheckResult:
    states_explored: int = 0
    transitions: int = 0
    terminal_states: int = 0
    truncated: bool = False
    violations: List[ModelViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violations"
        extra = " (TRUNCATED)" if self.truncated else ""
        return (
            f"{status}: {self.states_explored} states, "
            f"{self.transitions} transitions, "
            f"{self.terminal_states} terminal{extra}"
        )


class ModelChecker:
    """Exhaustive exploration of all interleavings of fixed programs.

    Parameters
    ----------
    graph:
        The share graph.  Keep it tiny -- state spaces explode.
    programs:
        Per-replica write sequences (registers; values are irrelevant to
        consistency and omitted from the state).
    policy_factory:
        As for :class:`~repro.core.system.DSMSystem`; defaults to the
        paper's algorithm.  Policies must be pure (no per-run state) --
        all shipped policies are.
    """

    def __init__(
        self,
        graph: ShareGraph,
        programs: Mapping[ReplicaId, Program],
        policy_factory: Optional[
            Callable[[ShareGraph, ReplicaId], TimestampPolicy]
        ] = None,
    ) -> None:
        self.graph = graph
        self.replicas: Tuple[ReplicaId, ...] = graph.replicas
        self._index = {r: i for i, r in enumerate(self.replicas)}
        for r, program in programs.items():
            if r not in graph:
                raise ConfigurationError(f"unknown replica {r!r}")
            for register in program:
                if register not in graph.registers_at(r):
                    raise ConfigurationError(
                        f"replica {r!r} cannot write {register!r}"
                    )
        self.programs: Dict[ReplicaId, Tuple[RegisterName, ...]] = {
            r: tuple(programs.get(r, ())) for r in self.replicas
        }
        if policy_factory is None:
            policy_factory = edge_policy_factory(graph)
        self.policies: Dict[ReplicaId, TimestampPolicy] = {
            r: policy_factory(graph, r) for r in self.replicas
        }
        # Registers relevant to each replica, for the safety predicate.
        self._registers_at = {
            r: graph.registers_at(r) for r in self.replicas
        }
        self._register_of: Dict[UpdateId, RegisterName] = {}

    # ------------------------------------------------------------------
    def _initial_state(self) -> _State:
        per_replica = tuple(
            (self.policies[r].initial(), frozenset(), frozenset(), 0)
            for r in self.replicas
        )
        return (per_replica, ())

    def _write_transition(
        self, state: _State, writer_index: int
    ) -> Optional[_State]:
        per_replica, in_flight = state
        ts, applied, closure, pc = per_replica[writer_index]
        writer = self.replicas[writer_index]
        program = self.programs[writer]
        if pc >= len(program):
            return None
        register = program[pc]
        uid = UpdateId(writer, pc + 1)
        self._register_of[uid] = register
        new_ts = self.policies[writer].advance(ts, register)
        past = closure  # full transitive causal past (Definition 1)
        new_states = list(per_replica)
        new_states[writer_index] = (
            new_ts, applied | {uid}, closure | {uid}, pc + 1
        )
        messages = list(in_flight)
        for dst in self.graph.recipients(writer, register):
            messages.append((dst, uid, register, new_ts, past))
        return (tuple(new_states), tuple(sorted(messages, key=_message_key)))

    def _apply_transition(
        self, state: _State, message_index: int
    ) -> Optional[Tuple[_State, Optional[ModelViolation]]]:
        per_replica, in_flight = state
        dst, uid, register, msg_ts, past = in_flight[message_index]
        dst_index = self._index[dst]
        ts, applied, closure, pc = per_replica[dst_index]
        policy = self.policies[dst]
        if not policy.ready(ts, uid.issuer, msg_ts):
            return None
        violation: Optional[ModelViolation] = None
        missing = [
            u
            for u in past
            if self._register_of[u] in self._registers_at[dst]
            and u not in applied
        ]
        if missing:
            violation = ModelViolation(
                kind="safety",
                replica=dst,
                detail=(
                    f"applied {uid} before "
                    f"{sorted(map(str, missing))}"
                ),
            )
        new_ts = policy.merge(ts, uid.issuer, msg_ts)
        new_states = list(per_replica)
        new_states[dst_index] = (
            new_ts, applied | {uid}, closure | past | {uid}, pc
        )
        remaining = in_flight[:message_index] + in_flight[message_index + 1 :]
        return ((tuple(new_states), remaining), violation)

    # ------------------------------------------------------------------
    def run(self, max_states: int = 200_000) -> ModelCheckResult:
        """Explore the reachable state graph (DFS with dedup)."""
        result = ModelCheckResult()
        initial = self._initial_state()
        seen: Set[_State] = {initial}
        stack: List[_State] = [initial]
        seen_violations: Set[Tuple[str, ReplicaId, str]] = set()
        while stack:
            if len(seen) > max_states:
                result.truncated = True
                break
            state = stack.pop()
            result.states_explored += 1
            successors: List[_State] = []
            per_replica, in_flight = state
            for writer_index in range(len(self.replicas)):
                nxt = self._write_transition(state, writer_index)
                if nxt is not None:
                    successors.append(nxt)
            deliverable = 0
            for message_index in range(len(in_flight)):
                outcome = self._apply_transition(state, message_index)
                if outcome is None:
                    continue
                deliverable += 1
                nxt, violation = outcome
                if violation is not None:
                    key = (violation.kind, violation.replica, violation.detail)
                    if key not in seen_violations:
                        seen_violations.add(key)
                        result.violations.append(violation)
                successors.append(nxt)
            if not successors:
                result.terminal_states += 1
                if in_flight:
                    # Programs done, updates stuck forever: liveness.
                    dsts = sorted({str(m[0]) for m in in_flight})
                    violation = ModelViolation(
                        kind="liveness",
                        replica=in_flight[0][0],
                        detail=(
                            f"{len(in_flight)} updates never deliverable "
                            f"at {dsts}"
                        ),
                    )
                    key = (violation.kind, violation.replica, violation.detail)
                    if key not in seen_violations:
                        seen_violations.add(key)
                        result.violations.append(violation)
                continue
            for nxt in successors:
                result.transitions += 1
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return result


def _message_key(message: _Message):
    dst, uid, register, ts, _ = message
    return (str(dst), str(uid.issuer), uid.seq, str(register))
