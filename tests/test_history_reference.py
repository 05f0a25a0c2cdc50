"""The frontier History and checker against Definitions 1-2 computed
directly with frozensets (:mod:`tests.history_reference`)."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import DSMSystem, History, ShareGraph, UpdateId, check_history
from repro.checker.check import frontier_closure_violations
from repro.network.delays import FixedDelay, PerEdgeDelay
from repro.sync import install_set
from tests.history_reference import ReferenceHistory, reference_check

REPLICAS = (1, 2, 3, 4)
REGISTERS = ("x", "y", "z")
KINDS = ("issue", "apply", "apply", "visible", "serve", "access")  # applies x2

placements = st.lists(
    st.sets(st.sampled_from(REGISTERS), min_size=1), min_size=4, max_size=4
).map(lambda sets: ShareGraph(dict(zip(REPLICAS, sets))))
steps = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.sampled_from(REPLICAS),
        st.integers(0, 40),
        st.integers(0, 2),
    ),
    min_size=20,
    max_size=60,
)


def play(ops):
    """Record ``ops`` into a History and the reference side by side."""
    h, ref = History(), ReferenceHistory()
    issued = {r: 0 for r in REPLICAS}
    tokens = {r: [] for r in REPLICAS}
    for step, (kind, r, pick, extra) in enumerate(ops):
        t = float(step)
        if kind == "issue":
            issued[r] += 1
            uid = UpdateId(r, issued[r])
            client = (None, "c0", "c1")[extra]
            h.record_issue(r, uid, REGISTERS[pick % 3], t, client=client)
            ref.issue(r, uid, REGISTERS[pick % 3], t, client)
        elif kind == "apply":
            # Any unapplied update, not only a causally ready one: early
            # applies are the violations the checker must list.
            todo = [u for u in ref.issued if r not in ref.applied_at(u)]
            if todo:
                uid = todo[pick % len(todo)]
                h.record_apply(r, uid, t)
                ref.apply(r, uid, t)
        elif kind == "visible":
            todo = [
                u for u in ref.issued
                if r in ref.applied_at(u) and r not in ref.visible.get(u, ())
            ]
            if todo:
                uid = todo[pick % len(todo)]
                h.record_visible(r, uid, t)
                ref.make_visible(r, uid, t)
        elif kind == "serve":
            tokens[r].append((h.access_token(r), ref.token(r)))
        else:
            client = f"c{extra % 2}"
            if pick % 2 and tokens[r]:
                token, ref_token = tokens[r].pop(pick % len(tokens[r]))
                h.record_client_access(client, r, t, token=token)
                ref.access(client, r, t, ref_token)
            else:
                h.record_client_access(client, r, t)
                ref.access(client, r, t)
    return h, ref


@settings(max_examples=300, deadline=None)
@given(
    graph=placements,
    ops=steps,
    visibility=st.booleans(),
    cap=st.sampled_from([1, 3, 1000]),
)
def test_history_and_checker_match_the_definitions(graph, ops, visibility, cap):
    h, ref = play(ops)
    got = check_history(h, graph, max_violations=cap, visibility=visibility)
    want = reference_check(ref, graph, visibility=visibility, max_violations=cap)
    assert got == want
    assert h.all_updates() == tuple(ref.issued)
    for u2 in ref.issued:
        assert h.causal_past(u2) == ref.past[u2]
        assert h.applied_at(u2) == ref.applied_at(u2)
        assert h.visible_at(u2) == frozenset(ref.visible.get(u2, ()))
        for u1 in ref.issued:
            assert h.happened_before(u1, u2) == (u1 in ref.past[u2])
    for r in REPLICAS:
        assert h.replica_causal_past(r) == ref.closure.get(r, frozenset())
        assert h.updates_by(r) == tuple(u for u in ref.issued if u.issuer == r)
        applied = ref.applied.get(r, set())
        relevant = {u for u in ref.issued if ref.register[u] in graph.registers_at(r)}
        installs = [u for u in ref.issued if u in relevant and u not in applied]
        want = [
            (u, m)
            for u in installs
            for m in ref.issued
            if m in ref.past[u] and m in relevant
            and m not in applied and m not in installs
        ][:20]
        assert frontier_closure_violations(h, graph, r, installs) == want
        for donor in REPLICAS:
            assert install_set(h, graph, donor, r) == tuple(
                u for u in ref.issued
                if u in ref.closure.get(donor, ()) and u in relevant
                and u not in applied
            )
    for c in ("c0", "c1", "nobody"):
        assert h.client_causal_past(c) == ref.client.get(c, frozenset())


def test_engine_applying_one_update_early_is_caught_at_that_event():
    """Replica 3 admits u(2,1) although its dependency u(1,1) -- applied
    at replica 2 before it issued u(2,1) -- is still in flight: the
    checker names exactly that apply and exactly that missing update."""
    graph = ShareGraph({1: {"x"}, 2: {"x", "y"}, 3: {"x", "y"}})
    delays = PerEdgeDelay({(1, 3): FixedDelay(10.0)}, FixedDelay(1.0))
    system = DSMSystem(graph, seed=1, delay_model=delays)
    early = UpdateId(2, 1)
    core = system.replica(3).core
    judge = core._judge
    core._judge = lambda sender, update: update.uid == early or judge(
        sender, update
    )
    system.schedule_write(0.0, 1, "x", "a")
    system.schedule_write(2.0, 2, "y", "b")  # after u(1,1) reached 2
    system.run()
    result = check_history(system.history, graph)
    (violation,) = result.safety
    event = next(
        e for e in system.history.events
        if e.kind == "apply" and e.replica == 3 and e.uid == early
    )
    assert (violation.replica, violation.applied, violation.missing) == (
        3, early, UpdateId(1, 1),
    )
    assert violation.time == event.time
    # u(1,1) is then never applied at 3 either (liveness reports it);
    # nothing else is reported.
    assert [(v.replica, v.update) for v in result.liveness] == [(3, UpdateId(1, 1))]
    assert not result.session
    # Unmutated, the same schedule is clean.
    clean = DSMSystem(graph, seed=1, delay_model=delays)
    clean.schedule_write(0.0, 1, "x", "a")
    clean.schedule_write(2.0, 2, "y", "b")
    clean.run()
    assert clean.check().ok
