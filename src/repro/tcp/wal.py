"""Per-replica write-ahead log for the TCP runtime.

Each replica appends one JSONL record per protocol event -- its own
issues (register + value + issuer sequence) and its applies of remote
updates (sender + the exact wire encoding of the update) -- and flushes
before the event's external consequences (sends, acks, client replies)
leave the process, once per commit for everything the commit covers.
A SIGKILL can therefore lose at most work that was never acknowledged
to anyone.

The log serves three masters:

* **recovery**: replaying the log through a fresh
  :class:`~repro.core.engine.ProtocolCore` reconstructs the store, the
  timestamp, the issuer sequence, *and* the durable outbox (the Send
  effects of replayed issues), because the core is deterministic in its
  event order;
* **audit**: the per-replica logs are merged into one
  :class:`~repro.core.causality.History` after a chaos run, so the
  consistency checker replays exactly what each process durably claims
  to have done;
* **retransmission**: the outbox rebuilt from the log is the state
  transferred by cursor-driven anti-entropy -- nothing acked is needed,
  nothing unacked is ever lost.

Records are plain JSON with hex-encoded wire bytes: greppable, and free
of any schema the codec does not already define.  Every record carries a
CRC32 (``"c"``) over its canonical serialization, so a flipped bit on
disk is *detected* rather than silently replayed into a diverged state.
A torn final line (the process died mid-write) is tolerated and dropped.

Two read disciplines share the format:

* :func:`read_wal` is **strict** -- corruption anywhere but the torn
  tail raises, because silently skipping acknowledged events would turn
  the post-run audit into a rubber stamp;
* :func:`recover_wal` is the **boot-time** discipline -- it splits the
  log at the first corrupt record into a valid prefix (safe to replay:
  the replica simply looks like it crashed earlier), the salvageable
  suffix (records after the corruption that still parse and checksum;
  their *issues* can be re-executed in issuer-sequence order), and the
  corruption metadata the runtime uses to quarantine the damaged file
  and escalate to a deep resync instead of crash-looping.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional

from repro.errors import ProtocolError, WalCorruptionError
from repro.wire.codec import decode_value, encode_value


@dataclass(frozen=True)
class WalEntry:
    """One durable event: ``kind`` is ``"issue"`` or ``"apply"``."""

    kind: str
    time: float
    register: Optional[str] = None  # issue
    value: Any = None  # issue
    src: Optional[str] = None  # apply
    update_bytes: Optional[bytes] = None  # apply
    seq: Optional[int] = None  # issue: the issuer sequence of the update


def _number(time: float) -> str:
    """``json.dumps(time)``: a finite float is its ``repr``."""
    if time.__class__ is float and time - time == 0.0:
        return float.__repr__(time)
    return json.dumps(time)


def record_crc(doc: dict) -> int:
    """CRC32 over the canonical serialization of ``doc`` minus ``"c"``."""
    body = {key: value for key, value in doc.items() if key != "c"}
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    return zlib.crc32(payload) & 0xFFFFFFFF


class WriteAheadLog:
    """Append-only JSONL log with flush-before-send semantics.

    Appends are staged in memory; :meth:`flush` hands every staged
    record to the kernel in one write.  The runtime flushes once per
    commit, before any frame or reply that depends on a staged record
    leaves the process, so the durability contract -- nothing is
    acknowledged before it is flushed -- holds at commit granularity.
    What is still staged when the process dies was never acknowledged
    to anyone; :meth:`discard` is the in-process analogue of that loss.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None
        #: Records appended since the last flush, one line each.
        self.pending: List[str] = []
        self.appended = 0
        self.flushes = 0

    # -- writing ---------------------------------------------------------
    def open(self) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "ab")

    def append_issue(
        self,
        register: str,
        value: Any,
        time: float,
        seq: Optional[int] = None,
    ) -> None:
        v = encode_value(value).hex()
        q = "" if seq is None else f'"q": {int(seq)}, '
        self._append(
            f'"k": "issue", {q}"t": {_number(time)}, "v": "{v}", '
            f'"x": {json.dumps(register)}}}'
        )

    def append_apply(self, src: str, update_bytes: bytes, time: float) -> None:
        self._append(
            f'"k": "apply", "s": {json.dumps(src)}, "t": {_number(time)}, '
            f'"u": "{update_bytes.hex()}"}}'
        )

    def _append(self, tail: str) -> None:
        """Stage one record from its fields after the opening brace.

        ``tail`` is ``json.dumps(doc, sort_keys=True)`` minus its ``{``:
        the callers write the keys in sorted order.  Every field name
        sorts after ``"c"``, so putting the CRC in front gives exactly
        ``json.dumps(dict(doc, c=crc), sort_keys=True)``, the bytes
        :func:`record_crc` verifies.
        """
        if self._fh is None:
            raise ProtocolError(f"WAL {self.path} is not open")
        crc = zlib.crc32(b"{" + tail.encode("utf-8")) & 0xFFFFFFFF
        self.pending.append(f'{{"c": {crc}, {tail}\n')
        self.appended += 1

    def flush(self) -> None:
        """Hand every staged record to the kernel (no-op when none are).

        The write reaches the kernel, so it survives SIGKILL of this
        process (the failure mode under test), though not a host crash
        -- fsync per commit would dominate latency for a property the
        chaos schedule never exercises.
        """
        if self.pending and self._fh is not None:
            self._fh.write("".join(self.pending).encode("utf-8"))
            self._fh.flush()
            self.pending.clear()
            self.flushes += 1

    def discard(self) -> None:
        """Drop the staged records, as a crash of the process would."""
        self.pending.clear()

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    # -- reading ---------------------------------------------------------
    def read(self) -> List[WalEntry]:
        return list(read_wal(self.path))


def _parse_record(doc: dict, path: str, lineno: int) -> WalEntry:
    kind = doc.get("k")
    if kind == "issue":
        value, _ = decode_value(bytes.fromhex(doc["v"]))
        return WalEntry(
            kind="issue",
            time=float(doc["t"]),
            register=doc["x"],
            value=value,
            seq=int(doc["q"]) if "q" in doc else None,
        )
    if kind == "apply":
        return WalEntry(
            kind="apply",
            time=float(doc["t"]),
            src=doc["s"],
            update_bytes=bytes.fromhex(doc["u"]),
        )
    raise ProtocolError(
        f"unknown WAL record kind {kind!r} at {path}:{lineno + 1}"
    )


#: Line classifications: ``_OK`` carries a doc; ``_TORN`` is a line that
#: does not parse as a complete JSON object (what an interrupted write
#: leaves behind); ``_CORRUPT`` is a *complete* record whose CRC32 does
#: not match -- a torn write cannot produce one, so a corrupt final line
#: is treated as corruption, never as an innocent torn tail (it may
#: already be acknowledged to peers).  A bit flip that destroys the
#: final line's JSON structure is indistinguishable from a torn write
#: and is dropped like one -- the one corruption the checksum cannot
#: separate from an ordinary crash.
_OK, _TORN, _CORRUPT = "ok", "torn", "corrupt"


def _classify_line(line: str) -> tuple:
    try:
        doc = json.loads(line)
    except ValueError:
        return _TORN, None
    if not isinstance(doc, dict):
        return _CORRUPT, None
    # Pre-checksum logs (records written before the "c" field existed)
    # stay readable; any present checksum must match.
    if "c" in doc and doc["c"] != record_crc(doc):
        return _CORRUPT, None
    return _OK, doc


def _wal_lines(path: str) -> List[str]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    # A trailing newline leaves one empty element; a torn write leaves a
    # partial JSON document in the final element only.
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def read_wal(path: str) -> Iterator[WalEntry]:
    """Yield the durable entries of one replica's log, in order.

    Strict: a record that fails to parse or fails its CRC32 raises
    (except the torn final line, which is dropped -- the event never
    "happened").  Boot-time recovery uses :func:`recover_wal` instead.
    """
    if not os.path.exists(path):
        return
    lines = _wal_lines(path)
    for lineno, line in enumerate(lines):
        status, doc = _classify_line(line)
        if status == _TORN and lineno == len(lines) - 1:
            return  # torn final record: the event never "happened"
        if status != _OK:
            raise WalCorruptionError(
                f"corrupt WAL record at {path}:{lineno + 1}"
            ) from None
        yield _parse_record(doc, path, lineno)


@dataclass
class WalRecovery:
    """Boot-time split of a (possibly damaged) WAL.

    ``entries`` is the longest valid prefix -- replaying exactly it is
    always sound (the replica behaves as if it crashed at that point).
    ``salvaged`` holds the still-valid records *after* the first corrupt
    line: their issue records (with contiguous issuer sequences) can be
    re-executed so the replica's own acknowledged writes survive a
    mid-file flip; their applies are dropped and recovered from the
    peers via deep resync.  ``corrupt_lines`` are 1-based line numbers
    that failed parse or CRC (the torn final line is reported in
    ``torn_tail`` instead and is not corruption).
    """

    path: str
    entries: List[WalEntry] = field(default_factory=list)
    prefix_lines: List[str] = field(default_factory=list)
    salvaged: List[WalEntry] = field(default_factory=list)
    corrupt_lines: List[int] = field(default_factory=list)
    total_lines: int = 0
    torn_tail: bool = False

    @property
    def clean(self) -> bool:
        return not self.corrupt_lines


def recover_wal(path: str) -> WalRecovery:
    """Split ``path`` into valid prefix / corrupt lines / salvaged suffix."""
    recovery = WalRecovery(path=path)
    if not os.path.exists(path):
        return recovery
    lines = _wal_lines(path)
    recovery.total_lines = len(lines)
    corrupted = False
    for lineno, line in enumerate(lines):
        status, doc = _classify_line(line)
        if status != _OK:
            if (
                status == _TORN
                and lineno == len(lines) - 1
                and not corrupted
            ):
                # An incomplete final line on an otherwise clean log is
                # the ordinary torn tail, not corruption.  A *complete*
                # final record with a bad checksum is corruption: the
                # event may already be acknowledged, so it must go
                # through quarantine + resync repair, not be dropped.
                recovery.torn_tail = True
                return recovery
            corrupted = True
            recovery.corrupt_lines.append(lineno + 1)
            continue
        entry = _parse_record(doc, path, lineno)
        if corrupted:
            recovery.salvaged.append(entry)
        else:
            recovery.entries.append(entry)
            recovery.prefix_lines.append(line)
    return recovery


def quarantine_wal(recovery: WalRecovery) -> str:
    """Move the damaged log aside and rewrite it as its valid prefix.

    The original file is preserved verbatim at ``<path>.corrupt-N`` for
    forensics; the live path is rewritten with the prefix lines copied
    byte-for-byte (so their checksums still verify).  Returns the
    quarantine path.
    """
    base = recovery.path + ".corrupt"
    quarantine = base
    counter = 0
    while os.path.exists(quarantine):
        counter += 1
        quarantine = f"{base}-{counter}"
    os.replace(recovery.path, quarantine)
    with open(recovery.path, "w", encoding="utf-8") as fh:
        for line in recovery.prefix_lines:
            fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    return quarantine
