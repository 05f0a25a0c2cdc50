"""Timestamp and update message encoding.

The index set of a replica's timestamp (``E_i``) is static configuration
known to every peer, so the wire form of a timestamp is just the counters
in a canonical edge order -- one varint each -- prefixed by the count.
Update messages add the issuer sequence number, the register, and the
value (tagged primitives).

This is deliberately schema-light: the experiments only need faithful
*sizes* plus lossless round trips, not cross-version evolution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Mapping, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.core.engine.stabilization import StabilizeFrame

from repro.core.edge_index import EdgeIndex
from repro.core.timestamp import Timestamp
from repro.errors import ProtocolError, WireDecodeError
from repro.types import Edge, Update, UpdateId
from repro.wire.varint import (
    decode_uvarint,
    encode_uvarint,
    uvarint_size,
)


def canonical_edge_order(edges) -> Tuple[Edge, ...]:
    """The deterministic order both endpoints agree on."""
    return tuple(sorted(edges, key=lambda e: (str(e[0]), str(e[1]))))


#: Edge orders resolved to ``(order, EdgeIndex, positions)``, keyed by
#: ``id(order)``: ``positions[k]`` is where ``order[k]`` sits in the
#: index.  Each entry holds its order, so the id is not reused while the
#: entry lives.  Runtimes pass a few long-lived orders; a caller that
#: builds a fresh order per call only refills the table, which is
#: emptied when it reaches :data:`_COMPILED_MAX`.
_COMPILED: Dict[int, Tuple[Sequence[Edge], EdgeIndex, Tuple[int, ...]]] = {}
_COMPILED_MAX = 1024


def _compile(order: Sequence[Edge]) -> Tuple[EdgeIndex, Tuple[int, ...]]:
    entry = _COMPILED.get(id(order))
    if entry is None or entry[0] is not order:
        if len(_COMPILED) >= _COMPILED_MAX:
            _COMPILED.clear()
        eindex = EdgeIndex.of(order)
        position = eindex.position
        entry = (order, eindex, tuple(position[e] for e in order))
        _COMPILED[id(order)] = entry
    return entry[1], entry[2]


def encode_timestamp(ts: Timestamp, order: Sequence[Edge] = None) -> bytes:
    """Encode counters in canonical (or supplied) edge order."""
    if order is None:
        order = canonical_edge_order(ts.index)
    eindex, positions = _compile(order)
    if ts.edge_index is not eindex:
        # The order names a different edge set: place each of its edges
        # in the timestamp's own index, refusing one it lacks.
        position = ts.edge_index.position
        for e in order:
            if e not in position:
                raise ProtocolError(f"timestamp missing edge {e!r}")
        positions = tuple(position[e] for e in order)
    out = bytearray(encode_uvarint(len(positions)))
    append = out.append
    values = ts.values_array
    for pos in positions:
        value = values[pos]
        if value < 0:
            raise ProtocolError(f"cannot varint-encode negative value {value}")
        while value > 0x7F:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


def decode_timestamp(
    data: bytes, order: Sequence[Edge], offset: int = 0
) -> Tuple[Timestamp, int]:
    """Decode counters against the shared edge order.

    A counter above ``2**63 - 1`` is refused: a ten-byte varint can carry
    up to ``2**70 - 1``, and the format's counters are int64.  The varint
    loop is :func:`~repro.wire.varint.decode_uvarint`'s, inlined.
    """
    eindex, positions = _compile(order)
    count, offset = decode_uvarint(data, offset)
    if count != len(positions):
        raise WireDecodeError(
            f"timestamp length {count} does not match index of {len(order)}"
        )
    values = [0] * len(eindex)
    end = len(data)
    for pos in positions:
        if offset >= end:
            raise WireDecodeError("truncated varint")
        byte = data[offset]
        offset += 1
        if byte < 0x80:
            values[pos] = byte
            continue
        value = byte & 0x7F
        shift = 7
        while True:
            if offset >= end:
                raise WireDecodeError("truncated varint")
            byte = data[offset]
            offset += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift > 63:
                raise WireDecodeError("varint too long")
        if value >> 63:
            raise WireDecodeError(f"timestamp counter {value} exceeds int64")
        values[pos] = value
    return Timestamp.from_array(eindex, values), offset


def timestamp_wire_bytes(ts: Timestamp) -> int:
    """Encoded size without materializing bytes (hot path of accounting).

    Timestamps are immutable, so the size is memoized on the value: a
    fan-out of N recipients (and any retransmissions) computes it once.
    Works on any timestamp-like object; only :class:`Timestamp` (which
    reserves a ``_wire_size`` slot) gets the memo.  One held as lanes is
    sized without unpacking: a byte per counter, plus one per lane at or
    past each threshold ``2**k`` -- adding ``2**31 - 2**k`` sets exactly
    those lanes' top bits, and never carries.
    """
    cached = getattr(ts, "_wire_size", None)
    if cached is not None:
        return cached
    size = uvarint_size(len(ts))
    packed = getattr(ts, "_packed", None)
    if packed is None:
        for _, value in ts.items():
            size += uvarint_size(value)
    else:
        top_bits, _, steps = ts.edge_index.lanes()
        size += len(ts)
        for step in steps:
            over = (packed + step) & top_bits
            if not over:
                break  # no lane reaches 2**k, so none reaches 2**(k + 7)
            size += over.bit_count()
    try:
        ts._wire_size = size
    except AttributeError:
        pass
    return size


# ----------------------------------------------------------------------
# Values: tagged primitives
# ----------------------------------------------------------------------
_TAG_NONE, _TAG_INT, _TAG_STR, _TAG_BYTES = 0, 1, 2, 3


def _encode_value(value: Any) -> bytes:
    if value is None:
        return bytes([_TAG_NONE])
    if isinstance(value, bool):  # bools are ints in Python; keep simple
        return bytes([_TAG_INT]) + encode_uvarint(int(value))
    if isinstance(value, int) and value >= 0:
        return bytes([_TAG_INT]) + encode_uvarint(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return bytes([_TAG_STR]) + encode_uvarint(len(raw)) + raw
    if isinstance(value, bytes):
        return bytes([_TAG_BYTES]) + encode_uvarint(len(value)) + value
    raise ProtocolError(
        f"wire codec supports None/int>=0/str/bytes values, got {type(value)}"
    )


def _decode_value(data: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(data):
        raise WireDecodeError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_INT:
        return decode_uvarint(data, offset)
    if tag in (_TAG_STR, _TAG_BYTES):
        length, offset = decode_uvarint(data, offset)
        if length > len(data) - offset:
            raise WireDecodeError(
                f"string/bytes value claims {length} bytes, "
                f"{len(data) - offset} remain"
            )
        raw = data[offset : offset + length]
        offset += length
        if tag == _TAG_BYTES:
            return raw, offset
        try:
            return raw.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise WireDecodeError(f"malformed utf-8 string value: {exc}") from None
    raise WireDecodeError(f"unknown value tag {tag}")


def encode_value(value: Any) -> bytes:
    """Public tagged-primitive encoding (``None``/int>=0/str/bytes)."""
    return _encode_value(value)


def decode_value(data: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Public tagged-primitive decoding; returns ``(value, next_offset)``."""
    return _decode_value(data, offset)


# ----------------------------------------------------------------------
# Update messages
# ----------------------------------------------------------------------
def encode_update(update: Update, order: Sequence[Edge] = None) -> bytes:
    """Encode ``update(i, tau, x, v)`` for a channel whose endpoints know
    the issuer and the register-name table out of band.

    Layout: seq varint | register (str value) | flags byte |
    value | timestamp.
    """
    if order is None:
        order = canonical_edge_order(update.timestamp.index)
    out = bytearray()
    out += encode_uvarint(update.uid.seq)
    out += _encode_value(str(update.register))
    out.append(1 if update.metadata_only else 0)
    out += _encode_value(update.value)
    out += encode_timestamp(update.timestamp, order)
    return bytes(out)


_sorted_by_name = lambda items: sorted(items, key=lambda kv: str(kv[0]))


def _check_count(count: int, data: bytes, offset: int, what: str) -> None:
    """Reject corrupt counts before looping: every entry costs >= 2 bytes."""
    if count * 2 > len(data) - offset:
        raise WireDecodeError(
            f"{what} count {count} exceeds the {len(data) - offset} "
            "remaining bytes"
        )


def encode_state_snapshot(
    store: Mapping[Any, Any],
    timestamp: Timestamp,
    frontiers: Mapping[Any, int],
    order: Sequence[Edge] = None,
) -> bytes:
    """Encode a causally consistent state snapshot for a sync transfer.

    Carries the donor's register values, its timestamp, and the
    per-sender delivery frontiers (highest sender-edge sequence the
    snapshot covers on each incoming channel).  Like updates, snapshots
    travel on channels whose endpoints know the edge order and the
    replica/register name tables out of band -- only values and counters
    go on the wire.

    Layout: frontier count | (sender str, seq varint)* |
    store count | (register str, value)* | timestamp.
    """
    if order is None:
        order = canonical_edge_order(timestamp.index)
    out = bytearray()
    out += encode_uvarint(len(frontiers))
    for sender, seq in _sorted_by_name(frontiers.items()):
        out += _encode_value(str(sender))
        out += encode_uvarint(seq)
    out += encode_uvarint(len(store))
    for register, value in _sorted_by_name(store.items()):
        out += _encode_value(str(register))
        out += _encode_value(value)
    out += encode_timestamp(timestamp, order)
    return bytes(out)


def decode_state_snapshot(
    data: bytes,
    order: Sequence[Edge],
    replica_names: Mapping[str, Any],
    register_names: Mapping[str, Any],
) -> Tuple[Dict[Any, Any], Timestamp, Dict[Any, int]]:
    """Decode a snapshot against the shared edge order and name tables.

    Replica and register identifiers travel as their string forms (the
    codec is schema-light); the receiver maps them back through the
    configuration tables every peer already holds.  Returns
    ``(store, timestamp, frontiers)``.
    """
    count, offset = decode_uvarint(data, 0)
    _check_count(count, data, offset, "snapshot frontier")
    frontiers: Dict[Any, int] = {}
    for _ in range(count):
        name, offset = _decode_value(data, offset)
        seq, offset = decode_uvarint(data, offset)
        if name not in replica_names:
            raise WireDecodeError(f"snapshot names unknown replica {name!r}")
        frontiers[replica_names[name]] = seq
    count, offset = decode_uvarint(data, offset)
    _check_count(count, data, offset, "snapshot store")
    store: Dict[Any, Any] = {}
    for _ in range(count):
        name, offset = _decode_value(data, offset)
        value, offset = _decode_value(data, offset)
        if name not in register_names:
            raise WireDecodeError(f"snapshot names unknown register {name!r}")
        store[register_names[name]] = value
    ts, offset = decode_timestamp(data, order, offset)
    if offset != len(data):
        raise WireDecodeError("trailing bytes in state snapshot")
    return store, ts, frontiers


def decode_update(
    data: bytes, issuer, order: Sequence[Edge]
) -> Update:
    """Decode an update from a channel with a known issuer."""
    seq, offset = decode_uvarint(data, 0)
    register, offset = _decode_value(data, offset)
    if not isinstance(register, str):
        raise WireDecodeError(f"update register must be a string, got {register!r}")
    if offset >= len(data):
        raise WireDecodeError("truncated update flags")
    metadata_only = bool(data[offset])
    offset += 1
    value, offset = _decode_value(data, offset)
    ts, offset = decode_timestamp(data, order, offset)
    if offset != len(data):
        raise WireDecodeError("trailing bytes in update")
    return Update(
        uid=UpdateId(issuer, seq),
        register=register,
        value=value,
        timestamp=ts,
        metadata_only=metadata_only,
    )


# ----------------------------------------------------------------------
# Stabilize frames (the GST policy's periodic min-gossip traffic)
# ----------------------------------------------------------------------
def encode_stabilize_frame(frame: "StabilizeFrame") -> bytes:
    """Encode one stabilization frame for a channel with a known issuer.

    Layout: clock varint | sent varint | entry count |
    (replica str, lst varint)*.  Replica identifiers travel as their
    string forms, mapped back through the receiver's configuration
    table, exactly like snapshot frontiers.
    """
    out = bytearray()
    out += encode_uvarint(frame.clock)
    out += encode_uvarint(frame.sent)
    out += encode_uvarint(len(frame.entries))
    for replica, lst in frame.entries:
        out += _encode_value(str(replica))
        out += encode_uvarint(lst)
    return bytes(out)


def decode_stabilize_frame(
    data: bytes, issuer: Any, replica_names: Mapping[str, Any]
) -> "StabilizeFrame":
    """Decode a stabilization frame from a channel with a known issuer."""
    from repro.core.engine.stabilization import StabilizeFrame

    clock, offset = decode_uvarint(data, 0)
    sent, offset = decode_uvarint(data, offset)
    count, offset = decode_uvarint(data, offset)
    _check_count(count, data, offset, "stabilize entry")
    entries = []
    for _ in range(count):
        name, offset = _decode_value(data, offset)
        lst, offset = decode_uvarint(data, offset)
        if name not in replica_names:
            raise WireDecodeError(
                f"stabilize frame names unknown replica {name!r}"
            )
        entries.append((replica_names[name], lst))
    if offset != len(data):
        raise WireDecodeError("trailing bytes in stabilize frame")
    return StabilizeFrame(issuer, clock, tuple(entries), sent)


def stabilize_frame_wire_bytes(frame: "StabilizeFrame") -> int:
    """Encoded size of a stabilize frame (transport accounting)."""
    size = uvarint_size(frame.clock) + uvarint_size(frame.sent)
    size += uvarint_size(len(frame.entries))
    for replica, lst in frame.entries:
        raw = len(str(replica).encode("utf-8"))
        size += 1 + uvarint_size(raw) + raw + uvarint_size(lst)
    return size
