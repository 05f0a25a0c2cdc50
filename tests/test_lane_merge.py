"""The lane-packed ``merge_delta`` and frame fold against the plan walk
they stand in for.

``EdgeIndexedPolicy.merge_delta`` merges two timestamps on one interned
index, :data:`~repro.core.timestamp.LANE_MIN_WIDTH` counters or wider,
as one big-integer expression over their ``_packed`` caches, and
``merge_run`` / ``blocked_many`` fold or fence a whole batch frame of
them the same way.  Three groups of tests hold that to "same answer, by
construction" (``test_vectorized`` adds the fold's parity on real
graphs):

* two properties over widths 1-600 and counters straddling every
  boundary the kernel knows about (one varint byte, two, the lane
  range): single merges cold and with caches carried through advance ->
  merge -> merge chains, and frames of 1-24 members with a stale,
  gapped or third-party-blocked member at any position;
* the range fence: a counter that reaches ``2**31`` leaves the lanes and
  the walk -- or, for a frame, the generic drain -- answers, silently
  and correctly;
* selection, and the suites that fence every merge change -- the
  engine-vs-oracle differentials, cross-runtime equality, policy
  conformance and the batching outcome check -- once with the lanes
  forced on and once with them hidden (``force_lane_merge``).
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.ablations import (
    LaxSenderEdgePolicy,
    NoThirdPartyCheckPolicy,
)
from repro.baselines.legacy import legacy_policy_factory
from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem
from repro.core.timestamp import LANE_MIN_WIDTH, EdgeIndexedPolicy, Timestamp
from repro.wire.codec import timestamp_wire_bytes
from repro.workloads import (
    clique_placements,
    fig5_placements,
    random_placements,
    ring_placements,
    run_workload,
    tree_placements,
    uniform_writes,
)
from tests import (
    test_batching,
    test_cross_runtime,
    test_differential_engine,
    test_engine_core,
    test_policy_conformance,
    test_vectorized,
)

# Replica 1 shares x with 2 and y with 2 and 3, so advancing on x bumps
# e(1,2) and on y bumps e(1,2) and e(1,3); padding edges between
# replicas that do not exist widen the index without touching the plans.
GRAPH = ShareGraph({1: {"x", "y"}, 2: {"x", "y"}, 3: {"y"}})
REAL_EDGES = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
LANE_LIMIT = 2**31
BOUNDARIES = [
    0, 1, 126, 127, 128, 129, 16_382, 16_383, 16_384, 16_385,
    LANE_LIMIT - 2, LANE_LIMIT - 1, LANE_LIMIT, LANE_LIMIT + 1, 2**62,
]  # fmt: skip


def _policy(width: int) -> EdgeIndexedPolicy:
    padding = [(10 + j, 11 + j) for j in range(width)]
    return EdgeIndexedPolicy.unsafe_with_edges(
        GRAPH, 1, (REAL_EDGES + padding)[:width]
    )


def _fresh(ts: Timestamp) -> Timestamp:
    """The same value with no cache of any kind."""
    return Timestamp.from_array(ts.edge_index, ts.values_array)


def _chain(policy, own_values, sender_values, warm):
    """advance, merge each sender, advance, merge the first again (which
    raises nothing).  Per step: the result, the keys, the result's lanes
    as it was born, and whether it should have been born with any --
    an advance carries its operand's, a merge packs what it is given."""
    eindex = policy._eindex
    own = Timestamp.from_array(eindex, own_values)
    senders = [Timestamp.from_array(eindex, v) for v in sender_values]
    timestamp_wire_bytes(own)  # memo on: every step must maintain it
    if warm:
        for ts in (own, *senders):
            ts._pack()
    steps = []
    ts = own
    for op in ("y", *senders, "x", senders[0]):
        if isinstance(op, Timestamp):
            fits = all(_fresh(t)._pack() is not None for t in (ts, op))
            ts, keys = policy.merge_delta(ts, 2, op)
        else:
            fits = ts._packed is not None
            ts, keys = policy.advance_delta(ts, op)
        steps.append((ts, keys, ts._packed, fits))
    return steps


@given(
    width=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
    ceiling=st.sampled_from([128, 16_386, LANE_LIMIT, 2**63]),
)
@example(width=552, seed=1, ceiling=128)
@example(width=552, seed=2, ceiling=LANE_LIMIT)
@example(width=600, seed=3, ceiling=2**63)
@example(width=LANE_MIN_WIDTH, seed=4, ceiling=16_386)
@example(width=33, seed=5, ceiling=LANE_LIMIT)
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_lanes_equal_the_walk(width, seed, ceiling, force_lane_merge):
    rng = random.Random(seed)
    pool = [v for v in BOUNDARIES if v < ceiling]
    policy = _policy(width)

    def draw():
        return tuple(
            rng.choice(pool) if rng.random() < 0.4 else rng.randrange(200)
            for _ in range(width)
        )

    own_values, sender_values = draw(), (draw(), draw())
    force_lane_merge(False)
    walked = _chain(policy, own_values, sender_values, warm=False)
    assert all(packed is None for _, _, packed, _ in walked)
    force_lane_merge(True)
    for warm in (False, True):
        steps = _chain(policy, own_values, sender_values, warm)
        for (want, want_keys, _, _), (out, keys, packed, fits) in zip(
            walked, steps
        ):
            assert out._values == want._values
            assert keys == want_keys
            assert out._wire_size == timestamp_wire_bytes(_fresh(out))
            assert packed == (_fresh(out)._pack() if fits else None)


SENDER_EDGE, THIRD_EDGE = (2, 1), (3, 1)  # as replica 1 hears replica 2
FOLD_POOL = [v for v in BOUNDARIES if v < 16_386]


def _frame(policy, rng, length, defect, at):
    """Replica 1's timestamp and a frame of ``length`` arbitrary
    timestamps from replica 2 in which every member is ready in order,
    except that member ``at`` is ``defect``: ``"stale"`` / ``"gapped"``
    (sender edge one short / one past) or ``"blocked"`` (a third-party
    counter one past everything before it)."""
    position = policy._eindex.position
    width = len(position)

    def draw():
        return [
            rng.choice(FOLD_POOL) if rng.random() < 0.4 else rng.randrange(200)
            for _ in range(width)
        ]

    own = draw()
    seq_pos, third_pos = position.get(SENDER_EDGE), position.get(THIRD_EDGE)
    heard = own[third_pos] if third_pos is not None else 0
    frame = []
    for member in range(length):
        values = draw()
        if seq_pos is not None:
            values[seq_pos] = own[seq_pos] + member + 1
            if member == at and defect in ("stale", "gapped"):
                values[seq_pos] += -1 if defect == "stale" else 1
        if third_pos is not None:
            if member == at and defect == "blocked":
                values[third_pos] = heard + 1
            else:
                values[third_pos] = rng.choice([0, heard, rng.randrange(heard + 1)])
            heard = max(heard, values[third_pos])
        frame.append(Timestamp.from_array(policy._eindex, values))
    return Timestamp.from_array(policy._eindex, own), frame


@given(
    width=st.integers(1, 600),
    length=st.integers(1, 24),
    defect=st.sampled_from([None, "stale", "gapped", "blocked"]),
    at=st.integers(0, 23),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=552, length=10, defect=None, at=0, seed=1)
@example(width=552, length=24, defect="blocked", at=23, seed=2)
@example(width=LANE_MIN_WIDTH, length=3, defect="gapped", at=0, seed=3)
@example(width=4, length=5, defect="stale", at=4, seed=4)
@example(width=3, length=2, defect="blocked", at=1, seed=5)
@example(width=1, length=1, defect=None, at=0, seed=6)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fold_equals_the_step_simulation(
    width, length, defect, at, seed, force_lane_merge
):
    """The fold is the step simulation or declines exactly when the
    simulation meets an unready member; ``blocked_many`` says "blocked"
    exactly when no member passes ``J`` with the gap test relaxed to
    ``seq <= own + 1``.  Below two counters replica 1 does not track
    the sender edge, so there is no gap test and both hooks decline."""
    policy = _policy(width)
    own, frame = _frame(policy, random.Random(seed), length, defect, at % length)
    timestamp_wire_bytes(own)
    force_lane_merge(False)
    assert policy.merge_run(own, 2, frame) is None
    assert policy.blocked_many(own, 2, frame) is False
    want = test_vectorized._step_simulation(policy, own, 2, frame)
    force_lane_merge(True)
    got = policy.merge_run(_fresh(own), 2, [_fresh(ts) for ts in frame])
    blocked = policy.blocked_many(own, 2, frame)
    position = policy._eindex.position
    if SENDER_EDGE not in position:
        assert got is None and blocked is False
        return
    assert blocked == (
        not any(
            ts[SENDER_EDGE] <= own[SENDER_EDGE] + 1
            and ts.get(THIRD_EDGE, 0) <= own.get(THIRD_EDGE, 0)
            for ts in frame
        )
    )
    unready = defect is not None and (defect != "blocked" or THIRD_EDGE in position)
    assert (want is None) == unready
    if want is None:
        assert got is None
        return
    out, keys = got
    assert out._values == want[0]._values
    assert keys == want[1]
    assert out._packed == _fresh(out)._pack() is not None
    assert out._wire_size is None  # no memo on the operand, none invented
    assert policy.merge_run(own, 2, frame)[0]._wire_size == want[0]._wire_size
    assert want[0]._wire_size == timestamp_wire_bytes(_fresh(out))


# ----------------------------------------------------------------------
# The lane range is checked, not assumed
# ----------------------------------------------------------------------
WIDE = 80  # past LANE_MIN_WIDTH: these run the shipped gate, unforced


def _small_timestamp(policy, seed):
    rng = random.Random(seed)
    return Timestamp.from_array(
        policy._eindex, [rng.randrange(300) for _ in range(WIDE)]
    )


def _assert_walk_agrees(force_lane_merge, policy, merges):
    """Each recorded ``(ts, sender_ts, merged, keys)`` is what the plan
    walk answers for the same operands, memoised wire size included."""
    force_lane_merge(False)
    for ts, sender_ts, merged, keys in merges:
        own = _fresh(ts)
        timestamp_wire_bytes(own)
        want, want_keys = policy.merge_delta(own, 2, _fresh(sender_ts))
        assert want._packed is None
        assert merged._values == want._values
        assert keys == want_keys
        assert merged._wire_size == want._wire_size
        assert merged._wire_size == timestamp_wire_bytes(_fresh(merged))


def test_own_counter_crossing_the_lane_range(force_lane_merge):
    assert WIDE >= LANE_MIN_WIDTH
    policy = _policy(WIDE)
    pos = policy._eindex.position[(1, 2)]
    values = [5] * WIDE
    values[pos] = LANE_LIMIT - 2
    ts = Timestamp.from_array(policy._eindex, values)
    timestamp_wire_bytes(ts)
    assert ts._pack() is not None
    merges = []

    ts, _ = policy.advance_delta(ts, "x")  # 2**31 - 1: the last that fits
    assert ts._values[pos] == LANE_LIMIT - 1
    assert ts._packed == _fresh(ts)._pack() is not None
    sender_ts = _small_timestamp(policy, 1)
    merged, keys = policy.merge_delta(ts, 2, sender_ts)
    assert merged._packed == _fresh(merged)._pack() is not None
    merges.append((ts, sender_ts, merged, keys))

    ts, _ = policy.advance_delta(merged, "x")  # 2**31: the cache is dropped
    assert ts._values[pos] == LANE_LIMIT
    assert ts._packed is None and ts._pack() is None
    sender_ts = _small_timestamp(policy, 2)
    merged, keys = policy.merge_delta(ts, 2, sender_ts)
    assert merged._packed is None
    assert merged._values[pos] == LANE_LIMIT
    merges.append((ts, sender_ts, merged, keys))
    _assert_walk_agrees(force_lane_merge, policy, merges)


@pytest.mark.parametrize("big", [LANE_LIMIT, 2**62], ids=["2**31", "2**62"])
def test_sender_counter_beyond_the_lane_range(big, force_lane_merge):
    policy = _policy(WIDE)
    ts = _small_timestamp(policy, 3)
    timestamp_wire_bytes(ts)
    assert ts._pack() is not None
    values = list(_small_timestamp(policy, 4)._values)
    values[17] = big
    sender_ts = Timestamp.from_array(policy._eindex, values)
    merged, keys = policy.merge_delta(ts, 2, sender_ts)
    assert sender_ts._packed is None and merged._packed is None
    assert merged._values[17] == big
    _assert_walk_agrees(force_lane_merge, policy, [(ts, sender_ts, merged, keys)])


def test_frame_member_beyond_the_lane_range_takes_the_generic_path():
    """552 counters, ten members, the third carrying ``2**31`` on an
    edge ``J`` does not read: no partial fold -- both hooks decline, the
    frame drains member by member, and the receiver ends exactly where
    ten ``remote_update`` calls leave it."""
    graph = ShareGraph(random_placements(24, 80, 10, seed=11))
    register = sorted(graph.shared(1, 2), key=str)[0]
    updates = test_batching._issue_run(graph, 10, register=register)
    eindex = updates[2].timestamp.edge_index
    values = list(updates[2].timestamp.values_array)
    values[eindex.position[(5, 7)]] = LANE_LIMIT
    updates[2] = dataclasses.replace(
        updates[2], timestamp=Timestamp.from_array(eindex, values)
    )
    seq, bat = test_batching._receiver_pair(graph, test_batching._CountingPolicy)
    policy, own = bat.core.policy, bat.core.timestamp
    assert eindex is policy._eindex and len(eindex) == 552
    stamps = [u.timestamp for u in updates]
    assert policy.merge_run(own, 1, stamps[:2]) is not None
    assert policy.merge_run(own, 1, stamps) is None
    # Gapped past the frontier: the sequence test alone proves it, no
    # lanes needed.  Within reach, dominance would need the member's.
    assert policy.blocked_many(own, 1, stamps[2:]) is True
    heard_two = policy.merge(policy.merge(own, 1, stamps[0]), 1, stamps[1])
    assert policy.blocked_many(heard_two, 1, stamps[2:]) is False
    for u in updates:
        seq.core.remote_update(1, u)
    bat.core.remote_batch(1, updates)
    test_batching._assert_same_outcome(seq, bat)
    assert policy.run_hits == 1  # the two-member probe above, not the frame
    assert bat.core.metrics.applied_remote == 10
    assert bat.core.timestamp[(5, 7)] == LANE_LIMIT
    assert bat.core.timestamp._packed is None


# ----------------------------------------------------------------------
# Selection: which systems take the lanes, unforced
# ----------------------------------------------------------------------
def _run(placements, writes=120, rate=20.0, **kwargs):
    system = DSMSystem(placements, seed=7, **kwargs)
    run_workload(system, uniform_writes(system.graph, writes, rate=rate, seed=13))
    assert system.check().ok
    return system


def test_dense_system_takes_the_lane_path_unforced():
    system = _run(random_placements(24, 80, 10, seed=11))
    for replica in system.replicas.values():
        policy = replica.core.policy
        assert len(policy._eindex) == 552
        assert replica.timestamp._packed == _fresh(replica.timestamp)._pack()
        assert replica.timestamp._packed is not None
        # 552 (pos, pos) pairs per policy that nothing reads any more ...
        assert policy._eindex not in policy._merge_plans
    # ... until a counter leaves the lane range and the walk needs them.
    values = list(replica.timestamp._values)
    values[0] = LANE_LIMIT
    policy.merge_delta(
        replica.timestamp, 1, Timestamp.from_array(policy._eindex, values)
    )
    assert policy._eindex in policy._merge_plans


def test_dense_batched_system_folds_unforced(monkeypatch):
    folds = []
    fold = EdgeIndexedPolicy.merge_run
    monkeypatch.setattr(
        EdgeIndexedPolicy,
        "merge_run",
        lambda *args: folds.append(fold(*args)) or folds[-1],
    )
    system = _run(random_placements(24, 80, 10, seed=11), batch_window=4.0)
    folded = [run[0] for run in folds if run is not None]
    assert len(folded) > 100 and len(folded) > 0.9 * len(folds)
    # Born with their lanes: the next merge or fold packs nothing.
    assert all(ts._packed == _fresh(ts)._pack() is not None for ts in folded)
    assert all(r.core.policy._third_masks for r in system.replicas.values())


@pytest.mark.parametrize(
    "placements,kwargs",
    [
        (tree_placements(16), {}),
        (fig5_placements(), {}),
        (ring_placements(8), {}),
        (tree_placements(16), {"batch_window": 4.0}),
        (ring_placements(8), {"batch_window": 4.0}),
        (clique_placements(8), {"batch_window": 4.0}),
    ],
    ids=[
        "tree-16", "fig5", "ring-8",
        "tree-16-batched", "ring-8-batched", "clique-8-batched",
    ],
)  # fmt: skip
def test_narrow_systems_never_pack(placements, kwargs, monkeypatch):
    packs = []
    pack = Timestamp._pack
    monkeypatch.setattr(
        Timestamp, "_pack", lambda ts: packs.append(ts) or pack(ts)
    )
    system = DSMSystem(placements, seed=7, **kwargs)
    indexes = {r.core.policy._eindex for r in system.replicas.values()}
    for eindex in indexes:
        # Interned for the process: another test may have forced lanes
        # onto this very index.
        monkeypatch.setattr(eindex, "_lanes", None)
    run_workload(system, uniform_writes(system.graph, 120, rate=20.0, seed=13))
    assert system.check().ok
    assert packs == []
    assert all(eindex._lanes is None for eindex in indexes)
    assert all(r.timestamp._packed is None for r in system.replicas.values())
    assert not any(r.core.policy._third_masks for r in system.replicas.values())


def test_subclass_calling_super_gets_the_same_answers(force_lane_merge):
    class Counting(EdgeIndexedPolicy):
        calls = 0

        def merge_delta(self, ts, sender, sender_ts):
            Counting.calls += 1
            return super().merge_delta(ts, sender, sender_ts)

    placements = random_placements(12, 30, 5, seed=11)
    traces = []
    for lanes in (True, False):
        force_lane_merge(lanes)
        traces.append(
            test_differential_engine.run_trace(
                placements, 250, 40.0, lambda g, r: Counting(g, r)
            )
        )
    assert Counting.calls > 0
    assert traces[0] == traces[1]
    assert traces[0] == test_differential_engine.run_trace(
        placements, 250, 40.0, legacy_policy_factory
    )


# ----------------------------------------------------------------------
# Both sides of the gate on every fence
# ----------------------------------------------------------------------
def test_runtimes_agree_with_lanes_and_without(force_lane_merge, tmp_path):
    """Three replicas pairwise sharing: one index, six counters."""
    ops = test_cross_runtime._sequential_workload(2, steps=24)
    outcomes = []
    for lanes in (True, False):
        force_lane_merge(lanes)
        wal_dir = tmp_path / f"lanes-{lanes}"
        wal_dir.mkdir()
        outcomes += [
            test_cross_runtime._run_simulator(ops, settle_each=True),
            test_cross_runtime._run_aio(ops, settle_each=True),
            test_cross_runtime._run_tcp(ops, True, wal_dir=str(wal_dir)),
        ]
    assert len(outcomes[0][0]) == len(ops)
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


@pytest.mark.parametrize("lanes", [True, False], ids=["lanes", "walk"])
class TestBothSidesOfTheGate:
    @pytest.fixture(autouse=True)
    def _side(self, force_lane_merge, lanes):
        force_lane_merge(lanes)

    @pytest.mark.parametrize(
        "policy_cls",
        [EdgeIndexedPolicy, NoThirdPartyCheckPolicy, LaxSenderEdgePolicy],
        ids=["edge", "no-third-party", "lax-sender-edge"],
    )
    @pytest.mark.parametrize("seed", [0, 7, 23, 91])
    def test_engine_matches_naive_rescan_oracle(self, seed, policy_cls):
        test_engine_core._run_against_naive_rescan(seed, policy_cls)

    @pytest.mark.parametrize("duplication", [0.0, 0.25], ids=["reliable", "dups"])
    def test_dense_engine_matches_naive_rescan_oracle(self, duplication):
        test_engine_core.test_dense_engine_matches_naive_rescan_oracle(duplication)

    @pytest.mark.parametrize(
        "name,placements,writes,rate",
        test_differential_engine.CASES,
        ids=[c[0] for c in test_differential_engine.CASES],
    )
    @pytest.mark.parametrize(
        "faults", [None, test_differential_engine.FAULTS], ids=["reliable", "chaos"]
    )
    def test_identical_traces(self, name, placements, writes, rate, faults):
        run_trace = test_differential_engine.run_trace
        assert run_trace(
            placements, writes, rate, legacy_policy_factory, faults
        ) == run_trace(placements, writes, rate, faults=faults)

    @pytest.mark.parametrize("tag", test_policy_conformance.TAGS)
    @pytest.mark.parametrize(
        "check",
        [
            fn
            for name, fn in sorted(vars(test_policy_conformance).items())
            if name.startswith("test_")
        ],
        ids=lambda fn: fn.__name__,
    )
    def test_policy_conformance(self, check, tag):
        check(tag)

    def test_wide_frames_fold_between_single_merges(self, lanes, monkeypatch):
        """clique-9, 72 counters: frames of seven with a single update
        between each.  A fold's result is born with its lanes, so the
        chain packs the receivers' starting timestamps and each arriving
        one once -- never a timestamp a receiver itself produced."""
        cold = []
        pack = Timestamp._pack
        monkeypatch.setattr(
            Timestamp,
            "_pack",
            lambda ts: (ts._packed is None and cold.append(ts)) or pack(ts),
        )
        graph = ShareGraph(clique_placements(9))
        updates = test_batching._issue_run(graph, 40, register="x0")
        seq, bat = test_batching._receiver_pair(graph, test_batching._CountingPolicy)
        arrived = [u.timestamp for u in updates]
        arrived += [seq.core.timestamp, bat.core.timestamp]
        for u in updates:
            seq.core.remote_update(1, u)
        for start in range(0, 40, 8):
            bat.core.remote_batch(1, updates[start : start + 7])
            bat.core.remote_update(1, updates[start + 7])
        test_batching._assert_same_outcome(seq, bat)
        assert bat.core.policy.run_hits == (5 if lanes else 0)
        if lanes:
            assert bat.core.timestamp._packed is not None
            assert all(any(ts is a for a in arrived) for ts in cold)
