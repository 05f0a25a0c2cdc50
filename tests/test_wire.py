"""Tests for the wire format (varints, timestamps, update messages)."""

from __future__ import annotations

import pytest

import random

from repro import EdgeIndexedPolicy, ShareGraph, Timestamp
from repro.errors import ProtocolError, WireDecodeError
from repro.types import Update, UpdateId
from repro.wire import (
    decode_timestamp,
    decode_update,
    decode_uvarint,
    encode_timestamp,
    encode_update,
    encode_uvarint,
    timestamp_wire_bytes,
)
from repro.wire.codec import (
    canonical_edge_order,
    decode_state_snapshot,
    decode_value,
    encode_state_snapshot,
    encode_value,
)
from repro.wire.varint import uvarint_size
from repro.workloads import fig5_placements

import hypothesis.strategies as st
from hypothesis import given, settings


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "value,size",
    [(0, 1), (1, 1), (127, 1), (128, 2), (16383, 2), (16384, 3), (2**35, 6)],
)
def test_varint_sizes(value, size):
    encoded = encode_uvarint(value)
    assert len(encoded) == size
    assert uvarint_size(value) == size
    decoded, offset = decode_uvarint(encoded)
    assert (decoded, offset) == (value, size)


@given(st.integers(min_value=0, max_value=2**62))
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip(value):
    decoded, offset = decode_uvarint(encode_uvarint(value))
    assert decoded == value


def test_varint_rejects_negative_and_truncated():
    with pytest.raises(ProtocolError):
        encode_uvarint(-1)
    with pytest.raises(ProtocolError):
        decode_uvarint(b"\x80")  # continuation bit with no next byte


# ----------------------------------------------------------------------
# Timestamps
# ----------------------------------------------------------------------
def test_timestamp_roundtrip():
    ts = Timestamp({(1, 2): 0, (2, 1): 300, (3, 1): 7})
    order = canonical_edge_order(ts.index)
    encoded = encode_timestamp(ts)
    decoded, offset = decode_timestamp(encoded, order)
    assert decoded == ts
    assert offset == len(encoded)
    assert timestamp_wire_bytes(ts) == len(encoded)


def test_timestamp_order_mismatch_detected():
    ts = Timestamp({(1, 2): 1})
    encoded = encode_timestamp(ts)
    with pytest.raises(ProtocolError):
        decode_timestamp(encoded, [(1, 2), (2, 1)])


def test_timestamp_counter_above_int64_refused():
    # A ten-byte varint carries up to 2**70 - 1; decode_uvarint admits it
    # (values are a different contract), a timestamp counter may not be it.
    huge = 2**70 - 1
    assert decode_uvarint(encode_uvarint(huge))[0] == huge
    order = [(1, 2), (2, 1)]
    for counter in (2**63, huge):
        crafted = (
            encode_uvarint(2) + encode_uvarint(3) + encode_uvarint(counter)
        )
        with pytest.raises(WireDecodeError, match="exceeds int64"):
            decode_timestamp(crafted, order)
    top = Timestamp({(1, 2): 3, (2, 1): 2**63 - 1})
    assert decode_timestamp(encode_timestamp(top), order)[0] == top


def test_fresh_timestamp_is_one_byte_per_counter():
    ts = Timestamp.zeros([(1, 2), (2, 1), (3, 1)])
    assert timestamp_wire_bytes(ts) == 1 + 3


def test_wire_bytes_grow_with_counters():
    small = Timestamp({(1, 2): 5})
    large = Timestamp({(1, 2): 10_000})
    assert timestamp_wire_bytes(large) > timestamp_wire_bytes(small)


# ----------------------------------------------------------------------
# Updates
# ----------------------------------------------------------------------
def test_update_roundtrip():
    graph = ShareGraph(fig5_placements())
    policy = EdgeIndexedPolicy(graph, 1)
    ts = policy.advance(policy.initial(), "y")
    update = Update(UpdateId(1, 3), "y", "hello", ts)
    order = canonical_edge_order(policy.edges)
    encoded = encode_update(update, order)
    decoded = decode_update(encoded, 1, order)
    assert decoded == update


def test_metadata_only_update_roundtrip():
    ts = Timestamp({(1, 2): 4})
    update = Update(UpdateId(1, 1), "x", None, ts, metadata_only=True)
    order = canonical_edge_order(ts.index)
    decoded = decode_update(encode_update(update, order), 1, order)
    assert decoded.metadata_only
    assert decoded.value is None


@pytest.mark.parametrize("value", [None, 0, 42, "text", b"\x00\xff"])
def test_value_types_roundtrip(value):
    ts = Timestamp({(1, 2): 1})
    order = canonical_edge_order(ts.index)
    update = Update(UpdateId(1, 1), "x", value, ts)
    assert decode_update(encode_update(update, order), 1, order).value == value


def test_unsupported_value_rejected():
    ts = Timestamp({(1, 2): 1})
    update = Update(UpdateId(1, 1), "x", object(), ts)
    with pytest.raises(ProtocolError):
        encode_update(update)


def test_trailing_bytes_rejected():
    ts = Timestamp({(1, 2): 1})
    order = canonical_edge_order(ts.index)
    encoded = encode_update(Update(UpdateId(1, 1), "x", 1, ts), order)
    with pytest.raises(ProtocolError):
        decode_update(encoded + b"\x00", 1, order)


@given(
    st.dictionaries(
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
        st.integers(min_value=0, max_value=10**9),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=80, deadline=None)
def test_timestamp_roundtrip_property(counters):
    ts = Timestamp(counters)
    order = canonical_edge_order(ts.index)
    decoded, _ = decode_timestamp(encode_timestamp(ts, order), order)
    assert decoded == ts


def reference_encode_timestamp(ts, order):
    """The edge-by-edge codec the compiled one replaced."""
    out = bytearray(encode_uvarint(len(order)))
    values, position = ts.values_array, ts.edge_index.position
    for e in order:
        pos = position.get(e)
        if pos is None:
            raise ProtocolError(f"timestamp missing edge {e!r}")
        out += encode_uvarint(values[pos])
    return bytes(out)


def reference_decode_timestamp(data, order, offset=0):
    count, offset = decode_uvarint(data, offset)
    if count != len(order):
        raise WireDecodeError("timestamp length mismatch")
    counters = {}
    for e in order:
        value, offset = decode_uvarint(data, offset)
        if value >> 63:
            raise WireDecodeError("timestamp counter exceeds int64")
        counters[e] = value
    return Timestamp(counters), offset


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class is what must agree
        return "raised", type(exc)


_EDGES = [(a, b) for a in "pqrs" for b in "pqrs" if a != b]


@st.composite
def timestamps_and_orders(draw):
    """A timestamp, and an order over its edges: permuted, sometimes
    with an edge it lacks, a repeated edge or a dropped one."""
    edges = draw(st.lists(st.sampled_from(_EDGES), min_size=1, unique=True))
    counter = st.one_of(
        st.integers(0, 300),
        st.integers(0, 2**70),
        st.sampled_from([2**63 - 1, 2**63, 2**70 - 1]),  # the int64 bound
        st.integers(-5, -1),
    )
    ts = Timestamp({e: draw(counter) for e in edges})
    order = draw(st.permutations(edges))
    mangle = draw(st.sampled_from(["none", "foreign", "repeat", "drop"]))
    if mangle == "foreign":
        order = order + [draw(st.sampled_from(_EDGES))]
    elif mangle == "repeat":
        order = order + [order[0]]
    elif mangle == "drop" and len(order) > 1:
        order = order[1:]
    return ts, tuple(order)


@given(timestamps_and_orders(), st.binary(max_size=4), st.data())
@settings(max_examples=400, deadline=None)
def test_compiled_codec_matches_the_varint_reference(case, junk, data):
    ts, order = case
    encoded = _outcome(encode_timestamp, ts, order)
    assert encoded == _outcome(reference_encode_timestamp, ts, order)
    if encoded[0] == "ok":
        wire = encoded[1]
    else:  # refused on encode: decode what the counters would be
        wire = encode_uvarint(len(order)) + b"".join(
            encode_uvarint(abs(ts[e]) if e in ts.index else 1) for e in order
        )
    # Mangled inputs: truncated, a byte overwritten (over-long varints,
    # counts that disagree), bytes inserted; decoded past a prefix.
    edit = data.draw(st.sampled_from(["none", "truncate", "set", "insert"]))
    at = data.draw(st.integers(0, len(wire)))
    byte = data.draw(st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0xFF]))
    if edit == "truncate":
        wire = wire[:at]
    elif edit == "set" and at < len(wire):
        wire = wire[:at] + bytes([byte]) + wire[at + 1 :]
    elif edit == "insert":
        run = bytes([byte]) * data.draw(st.integers(1, 11))
        wire = wire[:at] + run + wire[at:]
    wire = junk + wire
    new = _outcome(decode_timestamp, wire, order, len(junk))
    old = _outcome(reference_decode_timestamp, wire, order, len(junk))
    assert new == old
    if new[0] == "ok":
        assert new[1][0].edge_index is old[1][0].edge_index


def test_compiled_codec_refusals_on_the_ring():
    order = canonical_edge_order(Timestamp({(1, 2): 0, (2, 1): 0}).index)
    with pytest.raises(WireDecodeError, match="varint too long"):
        decode_timestamp(b"\x02" + b"\xff" * 10 + b"\x01", order)
    with pytest.raises(WireDecodeError, match="truncated varint"):
        decode_timestamp(b"\x02\x05\x80", order)
    with pytest.raises(ProtocolError, match="negative"):
        encode_timestamp(Timestamp({(1, 2): -1, (2, 1): 0}), order)
    with pytest.raises(ProtocolError, match="missing edge"):
        encode_timestamp(Timestamp({(1, 2): 1}), order)


# ----------------------------------------------------------------------
# Defensive decoding: mutated bytes never crash with a builtin exception
# ----------------------------------------------------------------------
def test_public_value_roundtrip():
    for value in (None, 0, 2**40, "héllo", b"\x00\xff" * 5):
        decoded, offset = decode_value(encode_value(value))
        assert decoded == value
        assert offset == len(encode_value(value))


def test_truncated_and_corrupt_decodes_raise_typed_error():
    ts = Timestamp({(1, 2): 7, (2, 1): 300})
    order = canonical_edge_order(ts.index)
    encoded = encode_timestamp(ts, order)
    for cut in range(len(encoded)):
        with pytest.raises(WireDecodeError):
            decode_timestamp(encoded[:cut] or b"", order)
    with pytest.raises(WireDecodeError):
        decode_value(b"")  # empty input
    with pytest.raises(WireDecodeError):
        decode_value(bytes([250]))  # unknown tag
    with pytest.raises(WireDecodeError):
        decode_value(bytes([2, 200]))  # str claims 200 bytes, has none
    with pytest.raises(WireDecodeError):
        decode_value(bytes([2, 2, 0xFF, 0xFE]))  # malformed utf-8


def _mutate(rng, data):
    """One random corruption: truncate, flip a byte, insert, or delete."""
    data = bytearray(data)
    op = rng.randrange(4)
    if op == 0 and data:
        del data[rng.randrange(len(data)) :]
    elif op == 1 and data:
        data[rng.randrange(len(data))] = rng.randrange(256)
    elif op == 2:
        data.insert(rng.randrange(len(data) + 1), rng.randrange(256))
    elif data:
        del data[rng.randrange(len(data))]
    return bytes(data)


def test_fuzz_mutated_frames_never_crash_decoder():
    """Seeded fuzz: decoders either round-trip or raise WireDecodeError.

    No mutation may leak ``struct.error``/``IndexError``/``KeyError``/
    ``UnicodeDecodeError`` -- a transport treats "bad bytes" as exactly
    one condition.
    """
    rng = random.Random(0xC0DEC)
    graph = ShareGraph(fig5_placements())
    policy = EdgeIndexedPolicy(graph, 1)
    order = canonical_edge_order(policy.edges)
    ts = policy.advance(policy.advance(policy.initial(), "y"), "y")
    seeds = [
        encode_update(Update(UpdateId(1, 2), "y", "payload", ts), order),
        encode_update(
            Update(UpdateId(1, 3), "y", b"\x01" * 40, ts, metadata_only=True),
            order,
        ),
        encode_timestamp(ts, order),
        encode_state_snapshot({"y": 9, "x": "s"}, ts, {2: 4, 3: 0}, order),
        encode_value("some string value"),
    ]
    replica_names = {str(r): r for r in graph.replicas}
    register_names = {str(x): x for x in graph.registers}
    for blob in seeds:
        for _ in range(400):
            mutated = _mutate(rng, blob)
            for decoder in (
                lambda b: decode_update(b, 1, order),
                lambda b: decode_timestamp(b, order),
                lambda b: decode_state_snapshot(
                    b, order, replica_names, register_names
                ),
                lambda b: decode_value(b),
            ):
                try:
                    decoder(mutated)
                except WireDecodeError:
                    pass  # the typed rejection path -- expected
                except ProtocolError:
                    pass  # semantic rejection (still typed) is fine too

