"""Wire formats: byte-accurate metadata accounting.

Section 4 states its lower bounds in *bits*; counting counters alone
hides the fact that counter magnitudes grow with execution length.  This
package provides a compact varint encoding for timestamps and update
messages so experiments can report real bytes on the wire, including the
effect of Appendix D compression.

It also holds the GST stabilize-frame codec and the state-snapshot
codec anti-entropy ships.
"""

from repro.wire.codec import (
    decode_stabilize_frame,
    decode_state_snapshot,
    decode_timestamp,
    decode_update,
    encode_stabilize_frame,
    encode_state_snapshot,
    encode_timestamp,
    encode_update,
    stabilize_frame_wire_bytes,
    timestamp_wire_bytes,
)
from repro.wire.varint import decode_uvarint, encode_uvarint

__all__ = [
    "decode_stabilize_frame",
    "decode_state_snapshot",
    "decode_timestamp",
    "decode_update",
    "encode_stabilize_frame",
    "encode_state_snapshot",
    "encode_timestamp",
    "encode_update",
    "stabilize_frame_wire_bytes",
    "timestamp_wire_bytes",
    "decode_uvarint",
    "encode_uvarint",
]
