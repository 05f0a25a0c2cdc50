"""Length-prefixed framing for the TCP runtime.

Every frame is ``4-byte big-endian length | 1 type byte | payload``.
The length covers the type byte and payload, and is bounded by
:data:`MAX_FRAME` so a corrupt peer cannot make a replica allocate
gigabytes.  Binary frames (``UPDATE``/``ACK``/``RESYNC``) carry
:mod:`repro.wire` encodings; control and client frames carry small JSON
documents -- they are off the hot path and benefit from being
greppable in a packet dump.

Decoding is defensive end to end: malformed lengths, unknown frame
types, and corrupt payloads raise
:class:`~repro.errors.WireDecodeError`, which the link layer treats as
"drop this connection" rather than "crash this replica".

Readers take frames a wake-up at a time: :class:`FrameReader` decodes
every complete frame in the bytes one read delivered, so a pipelined
burst costs one await, not two per frame.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Dict, List, Tuple

from repro.errors import WireDecodeError
from repro.wire.varint import decode_uvarint, encode_uvarint

#: Hard bound on one frame's body (type byte + payload).  Snapshot-free
#: traffic is tiny (updates are tens of bytes); JSON status responses of
#: large clusters stay far below this too.
MAX_FRAME = 4 * 1024 * 1024


class FrameType(IntEnum):
    """One byte on the wire; values are part of the protocol."""

    HELLO = 1  # JSON: replica id, incarnation, per-link delivery cursor
    UPDATE = 2  # varint channel seq | wire-encoded update
    ACK = 3  # varint cumulative channel seq
    HEARTBEAT = 4  # empty payload
    RESYNC = 5  # varint cursor: "replay your outbox above this to me"
    BYE = 6  # graceful close (peer flushed and is going away)
    OP = 7  # JSON client/admin request
    OP_REPLY = 8  # JSON client/admin response
    UPDATE_BATCH = 9  # one commit's updates to a peer; see batch_payload
    RESYNC_FULL = 10  # JSON: cursor + issuer seq, "deep replay, ignore acks"
    ECHO = 11  # wire-encoded update: a peer returning the requester's issue


@dataclass(frozen=True)
class Frame:
    """A decoded frame: the type tag plus its raw payload bytes."""

    type: FrameType
    payload: bytes

    def json(self) -> Dict[str, Any]:
        try:
            doc = json.loads(self.payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise WireDecodeError(f"malformed JSON frame payload: {exc}") from None
        if not isinstance(doc, dict):
            raise WireDecodeError("JSON frame payload must be an object")
        return doc

    def uvarint(self) -> int:
        value, offset = decode_uvarint(self.payload, 0)
        if offset != len(self.payload):
            raise WireDecodeError("trailing bytes after varint payload")
        return value


def encode_frame(frame_type: FrameType, payload: bytes = b"") -> bytes:
    body_len = 1 + len(payload)
    if body_len > MAX_FRAME:
        raise WireDecodeError(f"frame body {body_len} exceeds MAX_FRAME")
    return body_len.to_bytes(4, "big") + bytes([frame_type]) + payload


def json_frame(frame_type: FrameType, doc: Dict[str, Any]) -> bytes:
    return encode_frame(
        frame_type, json.dumps(doc, sort_keys=True).encode("utf-8")
    )


def uvarint_frame(frame_type: FrameType, value: int) -> bytes:
    return encode_frame(frame_type, encode_uvarint(value))


def decode_frame(body: bytes) -> Frame:
    """Decode one frame body (everything after the length prefix)."""
    if not body:
        raise WireDecodeError("empty frame body")
    try:
        frame_type = FrameType(body[0])
    except ValueError:
        raise WireDecodeError(f"unknown frame type {body[0]}") from None
    return Frame(frame_type, bytes(body[1:]))


#: Most bytes one :meth:`FrameReader.read` takes from the stream.
READ_CHUNK = 1 << 18


class FrameReader:
    """Every complete frame the stream has delivered, per await.

    :meth:`read` returns at least one frame, and with it every other
    complete frame already buffered; a partial frame waits in the
    reader for the bytes that finish it.  The length bound and the
    frame-type check are :func:`read_frame`'s: a bad frame poisons the
    read that brought it (:class:`WireDecodeError`), and the connection
    is dropped with the frames before it, which the peer's cursor
    replay or the client's retry sends again.
    """

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._buffer = b""

    async def read(self) -> List[Frame]:
        """The next frames; ``IncompleteReadError`` on end of stream."""
        while True:
            frames = self._split()
            if frames:
                return frames
            data = await self._reader.read(READ_CHUNK)
            if not data:
                raise asyncio.IncompleteReadError(self._buffer, None)
            self._buffer += data

    def _split(self) -> List[Frame]:
        buffer, offset, frames = self._buffer, 0, []
        while len(buffer) - offset >= 4:
            body_len = _body_len(buffer[offset : offset + 4])
            stop = offset + 4 + body_len
            if stop > len(buffer):
                break
            frames.append(decode_frame(buffer[offset + 4 : stop]))
            offset = stop
        self._buffer = buffer[offset:]
        return frames


def _body_len(header: bytes) -> int:
    body_len = int.from_bytes(header, "big")
    if body_len == 0 or body_len > MAX_FRAME:
        raise WireDecodeError(f"frame length {body_len} out of bounds")
    return body_len


async def read_frame(reader: asyncio.StreamReader) -> Frame:
    """Read one length-prefixed frame; raises on EOF or corruption.

    ``asyncio.IncompleteReadError`` propagates on clean EOF mid-stream
    (the link layer treats it as a disconnect); a corrupt length raises
    :class:`WireDecodeError` so the connection is dropped as poisoned.
    """
    body_len = _body_len(await reader.readexactly(4))
    return decode_frame(await reader.readexactly(body_len))


def split_update_payload(payload: bytes) -> Tuple[int, bytes]:
    """An ``UPDATE`` payload is ``varint chanseq | encoded update``."""
    chanseq, offset = decode_uvarint(payload, 0)
    if offset >= len(payload):
        raise WireDecodeError("update frame has no update bytes")
    return chanseq, payload[offset:]


def update_payload(chanseq: int, update_bytes: bytes) -> bytes:
    return encode_uvarint(chanseq) + update_bytes


def batch_payload(members: "List[Tuple[int, bytes]]") -> bytes:
    """An ``UPDATE_BATCH`` payload: one commit's updates on one link.

    Layout: ``varint count | (varint chanseq | varint len | update)*``.
    Per-member chanseqs are kept (rather than a base + run) because the
    outbox may replay a non-contiguous suffix after a reconnect.
    """
    out = bytearray(encode_uvarint(len(members)))
    for chanseq, update_bytes in members:
        out += encode_uvarint(chanseq)
        out += encode_uvarint(len(update_bytes))
        out += update_bytes
    return bytes(out)


def update_frames(members: "List[Tuple[int, bytes]]") -> List[bytes]:
    """The frames that carry one commit's ``(chanseq, update)`` pairs.

    One member is an ``UPDATE`` frame; more are ``UPDATE_BATCH`` frames,
    split only where a frame body would pass :data:`MAX_FRAME`.
    """
    if len(members) == 1:
        return [encode_frame(FrameType.UPDATE, update_payload(*members[0]))]
    frames: List[bytes] = []
    start, size = 0, 11  # type byte + count varint
    for k, (_, update_bytes) in enumerate(members):
        # Chanseq and length varints are at most 10 bytes each, so the
        # size is a bound, never an underestimate.
        member = 20 + len(update_bytes)
        if k > start and size + member > MAX_FRAME:
            frames.append(_batch_frame(members[start:k]))
            start, size = k, 11
        size += member
    frames.append(_batch_frame(members[start:]))
    return frames


def _batch_frame(members: "List[Tuple[int, bytes]]") -> bytes:
    return encode_frame(FrameType.UPDATE_BATCH, batch_payload(members))


def split_batch_payload(payload: bytes) -> "List[Tuple[int, bytes]]":
    """Decode an ``UPDATE_BATCH`` payload into ``(chanseq, bytes)`` pairs."""
    count, offset = decode_uvarint(payload, 0)
    if count * 2 > len(payload) - offset:
        raise WireDecodeError(
            f"batch count {count} exceeds the {len(payload) - offset} "
            "remaining bytes"
        )
    members: List[Tuple[int, bytes]] = []
    for _ in range(count):
        chanseq, offset = decode_uvarint(payload, offset)
        length, offset = decode_uvarint(payload, offset)
        if length == 0:
            raise WireDecodeError("batch member has no update bytes")
        if length > len(payload) - offset:
            raise WireDecodeError(
                f"batch member claims {length} bytes, "
                f"{len(payload) - offset} remain"
            )
        members.append((chanseq, payload[offset : offset + length]))
        offset += length
    if offset != len(payload):
        raise WireDecodeError("trailing bytes in update batch frame")
    return members
