"""Timestamps held as lanes, and the lane paths against the plan walk
they stand in for.

On one interned index of :data:`~repro.core.timestamp.LANE_MIN_WIDTH`
counters or wider, ``EdgeIndexedPolicy.advance_delta`` and
``merge_delta`` return timestamps born from lanes (``_packed`` alone,
the counter tuple unpacked only when read), ``ready`` and its hooks read
those lanes, and ``merge_run`` / ``blocked_many`` fold or fence a whole
batch frame the same way.  Four groups of tests hold that to "same
answer, by construction" (``test_vectorized`` adds the fold's parity on
real graphs):

* two properties over widths 1-600 and counters straddling every
  boundary the kernel knows about (one varint byte, two, the lane
  range): single merges cold and with caches carried through advance ->
  merge -> merge chains, and frames of 1-24 members with a stale,
  gapped or third-party-blocked member at any position;
* the range fence: a counter that reaches ``2**31`` leaves the lanes and
  the walk -- or, for a frame, the generic drain -- answers, silently
  and correctly;
* the representation: a lane-born timestamp reads, hashes, compares,
  encodes and sizes as its tuple-born twin; ``J``, its blocking edge and
  the raised-key view answer as the walk; a dense round never unpacks
  and a sparse one never packs;
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
from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem
from repro.core.timestamp import LANE_MIN_WIDTH, EdgeIndexedPolicy, Timestamp
from repro.wire.codec import encode_timestamp, timestamp_wire_bytes
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
from tests.engine_reference import legacy_policy_factory

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


def _fits(*stamps: Timestamp) -> bool:
    return all(_fresh(ts)._pack() is not None for ts in stamps)


def _assert_wire_size(ts: Timestamp, want: int) -> None:
    """A lane path carries the memo only while no varint changed length;
    either way the size is right, and computed without unpacking."""
    assert ts._wire_size in (None, want)
    assert timestamp_wire_bytes(ts) == want


def _chain(policy, own_values, sender_values, warm):
    """advance, merge each sender, advance, merge the first again (which
    raises nothing).  Per step: the result, the keys, the result's lanes
    as it was born, and whether it should have been born with any --
    both operands of a merge, and an advance's operand and result, fit
    the lanes."""
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
        before = ts
        if isinstance(op, Timestamp):
            ts, keys = policy.merge_delta(ts, 2, op)
            fits = _fits(before, op)
        else:
            ts, keys = policy.advance_delta(ts, op)
            fits = _fits(before, ts)
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
            assert out.values_array == want.values_array
            assert keys == want_keys
            _assert_wire_size(out, timestamp_wire_bytes(_fresh(out)))
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
    assert out.values_array == want[0].values_array
    assert keys == want[1]
    assert out._packed == _fresh(out)._pack() is not None
    assert out._wire_size is None  # no memo on the operand, none invented
    assert want[0]._wire_size == timestamp_wire_bytes(_fresh(out))
    _assert_wire_size(policy.merge_run(own, 2, frame)[0], want[0]._wire_size)


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
        assert merged.values_array == want.values_array
        assert keys == want_keys
        assert want._wire_size == timestamp_wire_bytes(_fresh(merged))
        _assert_wire_size(merged, want._wire_size)


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
    assert ts.values_array[pos] == LANE_LIMIT - 1
    assert ts._packed == _fresh(ts)._pack() is not None
    sender_ts = _small_timestamp(policy, 1)
    merged, keys = policy.merge_delta(ts, 2, sender_ts)
    assert merged._packed == _fresh(merged)._pack() is not None
    merges.append((ts, sender_ts, merged, keys))

    ts, _ = policy.advance_delta(merged, "x")  # 2**31: the cache is dropped
    assert ts.values_array[pos] == LANE_LIMIT
    assert ts._packed is None and ts._pack() is None
    sender_ts = _small_timestamp(policy, 2)
    merged, keys = policy.merge_delta(ts, 2, sender_ts)
    assert merged._packed is None
    assert merged.values_array[pos] == LANE_LIMIT
    merges.append((ts, sender_ts, merged, keys))
    _assert_walk_agrees(force_lane_merge, policy, merges)


@pytest.mark.parametrize("big", [LANE_LIMIT, 2**62], ids=["2**31", "2**62"])
def test_sender_counter_beyond_the_lane_range(big, force_lane_merge):
    policy = _policy(WIDE)
    ts = _small_timestamp(policy, 3)
    timestamp_wire_bytes(ts)
    assert ts._pack() is not None
    values = list(_small_timestamp(policy, 4).values_array)
    values[17] = big
    sender_ts = Timestamp.from_array(policy._eindex, values)
    merged, keys = policy.merge_delta(ts, 2, sender_ts)
    assert sender_ts._packed is None and merged._packed is None
    assert merged.values_array[17] == big
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
# Born from lanes: the tuple is a view that nothing on the hot path reads
# ----------------------------------------------------------------------
WIRE_POOL = [
    0, 1, 126, 127, 128, 129, 16_383, 16_384, 2**21 - 1, 2**21,
    2**28 - 1, 2**28, LANE_LIMIT - 2, LANE_LIMIT - 1,
]  # fmt: skip


def _born(ts: Timestamp) -> Timestamp:
    """The same value held as lanes alone, as the lane paths return it."""
    return Timestamp._from_lanes(ts.edge_index, _fresh(ts)._pack())


@given(width=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
@example(width=552, seed=1)
@example(width=1, seed=2)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_lane_born_equals_its_tuple_born_twin(width, seed, force_lane_merge):
    """Every reader answers alike for both forms, each from a cold
    lane-born copy; the wire size is read off the lanes unpacked, and
    an advance that fills a lane's top bit drops the lanes."""
    rng = random.Random(seed)
    policy = _policy(width)
    eindex = policy._eindex

    def draw():
        values = [
            rng.choice(WIRE_POOL) if rng.random() < 0.5 else rng.randrange(300)
            for _ in range(width)
        ]
        if rng.random() < 0.3:
            values[eindex.position[(1, 2)]] = LANE_LIMIT - 1
        return Timestamp.from_array(eindex, values)

    twin, other = draw(), draw()
    cold = _born(twin)
    assert timestamp_wire_bytes(cold) == timestamp_wire_bytes(_fresh(twin))
    assert cold._values is None
    assert _born(twin) == twin and twin == _born(twin) and _born(twin) == cold
    assert (_born(twin) == other) == (twin == other)
    readers = [
        hash,
        lambda ts: list(ts.items()),
        lambda ts: ts.to_dict(),
        lambda ts: [ts[e] for e in eindex.order],
        lambda ts: ts.values_array,
        lambda ts: ts.total(),
        lambda ts: (ts.dominates(other), other.dominates(ts)),
        lambda ts: ts.dominates(_born(other)),
        lambda ts: (ts.diff_keys(other), ts.diff_keys(_born(other))),
        encode_timestamp,
    ]
    for read in readers:
        assert read(_born(twin)) == read(_fresh(twin))
    force_lane_merge(True)
    advanced, keys = policy.advance_delta(_born(twin), "x")
    force_lane_merge(False)
    assert (advanced, keys) == policy.advance_delta(_fresh(twin), "x")
    assert (advanced._packed is None) == (twin[(1, 2)] == LANE_LIMIT - 1)


@given(
    width=st.integers(2, 600),
    length=st.integers(1, 6),
    defect=st.sampled_from([None, "stale", "gapped", "blocked"]),
    at=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=552, length=3, defect="blocked", at=0, seed=1)
@example(width=552, length=2, defect="stale", at=1, seed=2)
@example(width=LANE_MIN_WIDTH, length=4, defect="gapped", at=2, seed=3)
@settings(max_examples=60, deadline=None)
def test_lane_predicate_equals_the_walk(width, length, defect, at, seed):
    """``ready``, ``next_seq``, ``sender_seq`` and ``blocking_edge``
    read lanes when a tuple is missing and answer as the walk does.
    Each member meets replica 1 as the frame left it: ready in turn,
    unless it is the stale, gapped or third-party-blocked one."""
    policy = _policy(width)
    own, frame = _frame(policy, random.Random(seed), length, defect, at % length)
    for member in frame:
        assert policy.next_seq(_born(own), 2) == policy.next_seq(own, 2)
        assert policy.sender_seq(2, _born(member)) == policy.sender_seq(2, member)
        want = policy.ready(own, 2, member)
        for receiver, update in (
            (_born(own), _born(member)),
            (_born(own), member),
            (own, _born(member)),
        ):
            assert policy.ready(receiver, 2, update) == want
        if want:
            own = _fresh(policy.merge(own, 2, member))
            continue
        lane_own = _born(own)
        block = policy.blocking_edge(lane_own, 2, _born(member))
        assert block == policy.blocking_edge(own, 2, member)
        assert lane_own._values is None


@given(width=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
@example(width=552, seed=1)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_raised_view_equals_the_walks_frozenset(width, seed, force_lane_merge):
    rng = random.Random(seed)
    policy = _policy(width)
    order = policy._eindex.order
    own, theirs = (
        Timestamp.from_array(policy._eindex, [rng.randrange(4) for _ in order])
        for _ in range(2)
    )
    force_lane_merge(False)
    want = policy.merge_delta(own, 2, theirs)[1]
    force_lane_merge(True)
    view = policy.merge_delta(_fresh(own), 2, _fresh(theirs))[1]
    assert isinstance(want, frozenset)
    assert list(view) == [e for e in order if e in want]
    assert [e for e in order if e in view] == list(view)
    assert len(view) == len(want) and view == want
    assert (0, 0) not in view  # an edge the index does not hold


@pytest.mark.parametrize(
    "untracked", [False, True], ids=["edge", "untracked-sender-edge"]
)
def test_lane_blocking_edge_equals_the_walk(untracked):
    """Random blocked pairs on clique-6 (five incoming edges per
    replica); ``untracked`` drops the sender edge from the receiver's
    index, so ``J`` has no sequence conjunct and only third parties
    block.  The lane-born receiver is read, never unpacked."""
    graph = ShareGraph(clique_placements(6))
    replicas = sorted(graph.replicas)
    rng = random.Random(5)
    blocked = 0
    for _ in range(300):
        rid, sender = rng.sample(replicas, 2)
        policy = EdgeIndexedPolicy(graph, rid)
        if untracked:
            policy = EdgeIndexedPolicy.unsafe_with_edges(
                graph, rid, policy.edges - {(sender, rid)}
            )
        eindex = policy._eindex
        own = [rng.randrange(4) for _ in eindex.order]
        theirs = [max(0, v + rng.choice((-1, 0, 0, 1))) for v in own]
        seq_pos = eindex.position.get((sender, rid))
        if seq_pos is not None and rng.random() < 0.7:
            theirs[seq_pos] = own[seq_pos] + 1
        own_ts, sender_ts = (Timestamp.from_array(eindex, v) for v in (own, theirs))
        if policy.ready(own_ts, sender, sender_ts):
            continue
        blocked += 1
        want = policy.blocking_edge(own_ts, sender, sender_ts)
        lane_own = _born(own_ts)
        for lane_sender in (_born(sender_ts), sender_ts):
            assert policy.ready(lane_own, sender, lane_sender) is False
            assert policy.blocking_edge(lane_own, sender, lane_sender) == want
        assert lane_own._values is None
    assert blocked > 100


def test_dense_round_is_born_from_lanes_and_never_unpacked(monkeypatch):
    """552 counters, shipped gate: every replica ends on a timestamp held
    as lanes alone, and nothing -- ``J``, the wake sets, ``blocking_edge``,
    wire sizing, the history check -- ever unpacks one."""
    unpacked = []
    unpack = Timestamp._unpack
    monkeypatch.setattr(
        Timestamp, "_unpack", lambda ts: unpacked.append(ts) or unpack(ts)
    )
    system = _run(random_placements(24, 80, 10, seed=11))
    assert unpacked == []
    assert all(r.timestamp._values is None for r in system.replicas.values())


def test_sparse_round_holds_no_lanes(monkeypatch):
    """The sparse shape, a tree of 16: no timestamp anywhere is packed or
    born from lanes, so every path runs the tuple code it always ran."""
    lanes = []
    pack, born = Timestamp._pack, Timestamp._from_lanes
    monkeypatch.setattr(
        Timestamp, "_pack", lambda ts: lanes.append(ts) or pack(ts)
    )
    monkeypatch.setattr(
        Timestamp,
        "_from_lanes",
        classmethod(lambda cls, *args: lanes.append(args) or born(*args)),
    )
    system = _run(tree_placements(16), writes=400)
    assert lanes == []
    assert all(r.timestamp._packed is None for r in system.replicas.values())


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
    values = list(replica.timestamp.values_array)
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
    assert all(r.core.policy._incoming_mask for r in system.replicas.values())


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
    assert not any(r.core.policy._incoming_mask for r in system.replicas.values())


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
            test_cross_runtime._run_clientserver(ops, settle_each=True),
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
        between each.  A fold's result is born from lanes, and so is
        every advance and merge, so the chain packs only the starting
        timestamps of the writer and the two receivers -- never one a
        replica produced."""
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
        for u in updates:
            seq.core.remote_update(1, u)
        for start in range(0, 40, 8):
            bat.core.remote_batch(1, updates[start : start + 7])
            bat.core.remote_update(1, updates[start + 7])
        test_batching._assert_same_outcome(seq, bat)
        assert bat.core.policy.run_hits == (5 if lanes else 0)
        if lanes:
            assert bat.core.timestamp._packed is not None
            assert all(u.timestamp._values is None for u in updates)
            assert len(cold) == 3 and all(ts.total() == 0 for ts in cold)
