"""Definitions 1-2 computed directly with frozensets.

The reference the frontier :class:`repro.core.causality.History` and
:func:`repro.checker.check_history` are compared against: pasts are sets
of update ids, replayed from a plain event list, and every check is a set
difference.  Nothing here is shared with the code under test except the
result types.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.checker.check import (
    CheckResult,
    LivenessViolation,
    SafetyViolation,
    SessionViolation,
)

EMPTY: FrozenSet = frozenset()


class ReferenceHistory:
    def __init__(self) -> None:
        self.log: List[tuple] = []  # (kind, replica, uid, client, token, time)
        self.issued: List = []
        self.register: Dict = {}
        self.past: Dict = {}  # uid -> frozenset (Definition 1)
        self.applied: Dict[object, Set] = {}
        self.closure: Dict[object, FrozenSet] = {}
        self.client: Dict[object, FrozenSet] = {}
        self.visible: Dict[object, Set] = {}  # uid -> replicas

    def issue(self, r, uid, register, time, client=None) -> None:
        self.issued.append(uid)
        self.register[uid] = register
        self.past[uid] = self.closure.get(r, EMPTY) | self.client.get(client, EMPTY)
        self.log.append(("issue", r, uid, client, None, time))
        self._apply(r, uid)

    def apply(self, r, uid, time) -> None:
        self.log.append(("apply", r, uid, None, None, time))
        self._apply(r, uid)

    def _apply(self, r, uid) -> None:
        self.applied.setdefault(r, set()).add(uid)
        self.closure[r] = self.closure.get(r, EMPTY) | self.past[uid] | {uid}

    def make_visible(self, r, uid, time) -> None:
        self.log.append(("visible", r, uid, None, None, time))
        self.visible.setdefault(uid, set()).add(r)

    def token(self, r):
        return frozenset(self.applied.get(r, ())), self.closure.get(r, EMPTY)

    def access(self, client, r, time, token=None) -> None:
        self.log.append(("access", r, None, client, token, time))
        growth = token[1] if token else self.closure.get(r, EMPTY)
        self.client[client] = self.client.get(client, EMPTY) | growth

    def applied_at(self, uid) -> FrozenSet:
        return frozenset(r for r, done in self.applied.items() if uid in done)


def reference_check(
    ref: ReferenceHistory,
    graph,
    visibility: bool = False,
    max_violations: int = 1000,
) -> CheckResult:
    result = CheckResult(updates_checked=len(ref.issued))
    rank = {u: n for n, u in enumerate(ref.issued)}
    applied: Dict = {}
    closure: Dict = {}
    visible: Dict = {}
    visible_closure: Dict = {}
    client: Dict = {}

    def relevant(r) -> Set:
        if r not in graph.replicas:
            return set()
        return {u for u in ref.issued if ref.register[u] in graph.registers_at(r)}

    def missing(past, r, have) -> List:  # in issue order
        return sorted((past & relevant(r)) - have, key=rank.__getitem__)

    for kind, r, uid, c, token, time in ref.log:
        if kind == "access":
            if token is not None:
                have, growth = token
            elif visibility:
                have, growth = visible.get(r, set()), visible_closure.get(r, EMPTY)
            else:
                have, growth = applied.get(r, set()), closure.get(r, EMPTY)
            for m in missing(client.get(c, EMPTY), r, have):
                if len(result.session) >= max_violations:
                    break
                result.session.append(SessionViolation(c, r, m, time))
            client[c] = client.get(c, EMPTY) | growth
            continue
        if kind == "visible" and not visibility:
            continue
        judged = kind == "visible" or not visibility
        have, grown = (visible, visible_closure) if kind == "visible" else (applied, closure)
        if judged:
            for m in missing(ref.past[uid], r, have.get(r, set())):
                if len(result.safety) >= max_violations:
                    break
                result.safety.append(SafetyViolation(r, uid, m, time))
            result.applies_checked += 1
        have.setdefault(r, set()).add(uid)
        grown[r] = grown.get(r, EMPTY) | ref.past[uid] | {uid}

    for uid in ref.issued:
        reached = ref.visible.get(uid, set()) if visibility else ref.applied_at(uid)
        missed = graph.replicas_storing(ref.register[uid]) - reached
        for r in sorted(missed, key=lambda v: (str(type(v)), repr(v))):
            if len(result.liveness) >= max_violations:
                break
            result.liveness.append(LivenessViolation(r, uid))
    return result
