"""numpy kernels for whole batch frames of edge-indexed timestamps.

:class:`~repro.core.timestamp.EdgeIndexedPolicy` answers the delivery
engine's two frame hooks, ``merge_run`` and ``blocked_many``, from here,
and only for frames wide enough to repay an array round-trip
(:data:`~repro.core.timestamp.FRAME_KERNEL_MIN_CELLS`): a ten-member
frame of 552-counter timestamps collapses into a handful of matrix
comparisons and one element-wise max.  Per-update ``advance`` /
``merge`` / ``ready`` stay scalar everywhere, because a numpy call per
update loses to the compiled position plans at every width the
benchmarks reach (``docs/performance.md`` section 6).

Nothing imports this module at import time -- the policy imports it on
its first wide frame, and it binds numpy then -- so a process that never
receives one never loads either; without numpy (the ``fast`` extra)
:data:`_np` is ``None`` and every frame takes the scalar path.

Byte-identity contract
----------------------
Every kernel here must produce *exactly* the result of the scalar
member-by-member path: the same
:class:`~repro.core.timestamp.Timestamp` values (tuples of Python ints,
so hashing/equality interoperate), the same changed-key frozensets, and
the same memoized wire sizes.  The differential oracle tests run the
kernels against the verbatim legacy policy and require byte-identical
histories and timestamps; only wall-clock may change.

Each :class:`Timestamp` lazily caches its ``int64`` ndarray view on the
``_np`` slot, so a timestamp shared across recipients or queue scans is
converted once.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, FrozenSet, Optional, Sequence, Tuple

from repro.core.timestamp import Timestamp
from repro.types import Edge, ReplicaId

if TYPE_CHECKING:
    from repro.core.timestamp import EdgeIndexedPolicy


def _numpy() -> Any:
    """numpy, or ``None`` when it is not installed."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


#: Bound when this module is first imported: on the first wide frame.
_np: Any = _numpy()

#: One sender's compiled frame plan: where the sender edge sits on each
#: side, the third-party ``(own, sender)`` index arrays (empty without
#: third parties), and the merge ``(own, sender)`` index arrays.
FramePlan = Tuple[int, int, Any, Any, Any, Any]


def _varint_sizes(arr: Any) -> Any:
    """Per-element LEB128 varint sizes of a non-negative int64 array.

    Exact threshold sums (never floating-point logs): size(v) is one
    plus the number of 7-bit boundaries v reaches.  Agrees with
    :func:`repro.wire.varint.uvarint_size` for the full int64 range.
    """
    sizes = _np.ones(arr.shape, dtype=_np.int64)
    for shift in range(7, 63, 7):
        sizes += arr >= (1 << shift)
    return sizes


def _as_array(ts: Timestamp) -> Any:
    """The timestamp's cached int64 ndarray view (built on first use)."""
    arr = ts._np
    if arr is None:
        arr = ts._np = _np.array(ts._values, dtype=_np.int64)
    return arr


def _index_arrays(pairs: Sequence[Tuple[int, int]]) -> Tuple[Any, Any]:
    """``(own, sender)`` position pairs as two intp arrays ready for
    fancy indexing."""
    count = len(pairs)
    return (
        _np.fromiter(map(itemgetter(0), pairs), dtype=_np.intp, count=count),
        _np.fromiter(map(itemgetter(1), pairs), dtype=_np.intp, count=count),
    )


def _frame_plan(
    policy: "EdgeIndexedPolicy",
    sender: ReplicaId,
    sender_timestamps: Sequence[Timestamp],
) -> Optional[FramePlan]:
    """The policy's ready and merge plans for ``sender`` compiled into
    index arrays (memoised on the policy), or ``None``.

    ``None`` marks a frame the kernels cannot serve: its members carry
    different edge indexes (crippled-policy runs; no single plan
    applies), or the sender edge is untracked on one side, so there is
    no exact gap check.  The run kernel folds each third-party pair's
    *sender column* as the contribution stream to the paired own
    counter, which is sound because the merge plan copies that column
    into that counter: both plans pair the same two position maps, the
    ready plan over the incoming edges in ``E_i ∩ E_k`` and the merge
    plan over all of ``E_i ∩ E_k``, so every third-party pair is a merge
    pair.
    """
    sender_index = sender_timestamps[0]._eindex
    for other in sender_timestamps:
        if other._eindex is not sender_index:
            return None
    key = (sender, sender_index)
    plans = policy._frame_plans
    if key in plans:
        return plans[key]
    plan: Optional[FramePlan] = None
    own_pos, sender_pos, third = policy._ready_plan(sender, sender_index)
    if own_pos is not None and sender_pos is not None:
        if sender_index is policy._eindex:
            # One interned index on both sides (every replica of a dense
            # graph tracks every edge): the merge pairing is the identity.
            own_idx = snd_idx = _np.arange(len(sender_index), dtype=_np.intp)
        else:
            own_idx, snd_idx = _index_arrays(policy._merge_plan(sender_index))
        third_own, third_snd = _index_arrays(third)
        plan = (own_pos, sender_pos, third_own, third_snd, own_idx, snd_idx)
    plans[key] = plan
    return plan


def merge_run(
    policy: "EdgeIndexedPolicy",
    ts: Timestamp,
    sender: ReplicaId,
    sender_timestamps: Sequence[Timestamp],
) -> Optional[Tuple[Timestamp, Optional[FrozenSet[Edge]]]]:
    """Fold a consecutively-ready frame into one merged timestamp.

    Given the timestamps of a whole batch frame from ``sender``,
    verify -- in a handful of matrix comparisons -- that applying
    the members *in frame order against an empty pending buffer*
    satisfies predicate ``J`` at every step: the sender-edge column
    must rise by exactly one per member starting from the local
    counter, and each member's third-party dependencies must be
    dominated by the local counters *as of the previous member*
    (a running column-max over the mapped sender contributions).
    On success return the post-frame timestamp -- the element-wise
    max over the whole frame, identical to folding ``merge`` member
    by member because max is associative -- plus the union of raised
    keys.  Return ``None`` when the run is not provably ready in
    order (stale/gapped/blocked members, foreign indexes, no numpy):
    the delivery engine then falls back to the generic
    enqueue-and-drain path, which handles every case.

    The caller (``ProtocolCore.remote_batch``) only invokes this
    with an empty pending buffer, so no interleaved apply from
    another sender could have been scheduled between members.
    """
    plan = _frame_plan(policy, sender, sender_timestamps)
    if plan is None:
        return None
    own_pos, sender_pos, third_own, third_snd, own_idx, snd_idx = plan
    k = len(sender_timestamps)
    own = _as_array(ts)
    matrix = _np.stack([_as_array(t) for t in sender_timestamps])
    # Exact sender-edge gap for the whole run in one comparison: the
    # sender column must be own+1, own+2, ..., own+k.
    expected = own[own_pos] + 1 + _np.arange(k, dtype=_np.int64)
    if not bool((matrix[:, sender_pos] == expected).all()):
        return None
    base = own[third_own]
    tcol = matrix[:, third_snd]
    # prev[j] = own counters after members < j have merged =
    # max(base, running column-max of their contributions);
    # each third pair's sender column *is* its contribution
    # stream (every third pair is a merge pair, see _frame_plan).
    run = _np.maximum.accumulate(tcol, axis=0)
    prev = _np.empty_like(run)
    prev[0] = base
    _np.maximum(base, run[:-1], out=prev[1:])
    if not bool((prev >= tcol).all()):
        return None
    final = matrix.max(axis=0)[snd_idx]
    own_sel = own[own_idx]
    mask = final > own_sel
    raised = own_idx[mask]
    new_vals = final[mask]
    out = own.copy()
    out[raised] = new_vals
    eindex = ts._eindex
    new_ts = Timestamp.from_array(eindex, out.tolist())
    new_ts._np = out
    if ts._wire_size is not None:
        old_vals = own_sel[mask]
        size = ts._wire_size
        # Counters below 128 encode in one byte either way; only
        # compute exact varint sizes when a boundary is in play.
        if bool((new_vals >= 128).any() or (old_vals >= 128).any()):
            size += int(
                (_varint_sizes(new_vals) - _varint_sizes(old_vals)).sum()
            )
        new_ts._wire_size = size
    order = eindex.order
    return new_ts, frozenset(order[p] for p in raised.tolist())


def blocked_many(
    policy: "EdgeIndexedPolicy",
    ts: Timestamp,
    sender: ReplicaId,
    sender_timestamps: Sequence[Timestamp],
) -> bool:
    """True when provably no member satisfies ``J`` at any frontier
    between the current timestamp and ``ts`` (inclusive).

    Monotonicity argument: counters only grow, third-party dominance
    is monotone in the local counters, and the exact sender-edge gap
    ``own + 1 == seq`` requires ``own`` to pass through ``seq - 1``
    on its way up.  So a member that could become ready at *some*
    intermediate frontier must have ``seq <= ts[edge] + 1`` and its
    third-party dependencies dominated by ``ts``; members failing
    either test under ``ts`` are unreachable at every frontier below
    it.  ``False`` means "cannot prove", never "ready".
    """
    plan = _frame_plan(policy, sender, sender_timestamps)
    if plan is None:
        return False
    own_pos, sender_pos, third_own, third_snd = plan[:4]
    own = _as_array(ts)
    matrix = _np.stack([_as_array(t) for t in sender_timestamps])
    possible = matrix[:, sender_pos] <= own[own_pos] + 1
    possible &= (own[third_own] >= matrix[:, third_snd]).all(axis=1)
    return not bool(possible.any())
