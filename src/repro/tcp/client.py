"""Client sessions for the TCP cluster: retry, failover, dedup.

A :class:`ClusterClient` mirrors the guarantees of the simulated
client-server runtime's sessions over real sockets: every request
carries a ``(session, request_id)`` pair, the server replays its cached
response for a duplicate, and the client retries with backoff --
failing over to the next replica that stores the register when its
current home stops answering (crashed, partitioned, or restarting).

The client keeps one open connection per replica it has talked to, so
an operation costs a dial only the first time its home is used (or after
that home failed), and each attempt is guarded by one deadline timer
that aborts the connection -- which is all a timed-out attempt ever did.

Within one server incarnation this yields exactly-once writes: the
server remembers the last :data:`~repro.tcp.runtime.DEDUP_WINDOW`
request ids of a session, and a session never has more than that many
requests unconfirmed.  Across a SIGKILL the dedup table dies with the
process and a retried write may execute twice -- as two updates carrying
the *same value*, which the store audit treats as equivalent (and real
systems call idempotent at-least-once delivery).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ReplicaOverloadedError,
    RetryExhaustedError,
    WireDecodeError,
)
from repro.tcp.framing import (
    Frame,
    FrameReader,
    FrameType,
    json_frame,
    read_frame,
)
from repro.tcp.runtime import DEDUP_WINDOW
from repro.wire.codec import decode_value, encode_value

#: What a failed attempt raises: the connection is gone or unusable and
#: the operation is retried on a fresh one.
_ATTEMPT_ERRORS = (
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
    ConnectionError,
    OSError,
    WireDecodeError,
)

_Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


@dataclass(frozen=True)
class OpResult:
    """One completed client operation with its measured latency."""

    op: str
    register: str
    value: Any
    uid: Optional[Tuple[str, int]]
    latency: float
    replica: str  # which replica finally served it
    attempts: int


@dataclass
class SessionStats:
    retries: int = 0
    failovers: int = 0
    #: Connections dialled (kept connections make this the number of
    #: homes used plus the number of connections lost).
    connects: int = 0
    #: Attempts rejected with a typed retryable shed reply (the replica
    #: was overloaded or recovering, not dead).
    sheds: int = 0


async def _read_reply(reader: asyncio.StreamReader) -> Dict[str, Any]:
    return _reply(await read_frame(reader))


def _reply(frame: Frame) -> Dict[str, Any]:
    if frame.type is not FrameType.OP_REPLY:
        raise WireDecodeError(f"expected OP_REPLY, got {frame.type!r}")
    return frame.json()


class _Deadline:
    """Abort ``transport`` once ``timeout`` passes without progress.

    One timer handle guards a whole attempt, however many awaits it
    makes: the aborted connection fails whichever read or drain is
    pending, and leaving the block turns that failure into
    :class:`asyncio.TimeoutError`.  :meth:`extend` restarts the count
    (a clock read and a store); the callback re-arms itself when it
    wakes early.
    No Task is created, where a timeout wrapped around every await
    made two per reply on Python <= 3.11.
    """

    def __init__(
        self, transport: asyncio.WriteTransport, timeout: float
    ) -> None:
        self._loop = asyncio.get_event_loop()
        self._transport = transport
        self._timeout = timeout
        self.expired = False
        self._due = self._loop.time() + timeout
        self._handle = self._loop.call_at(self._due, self._wake)

    def __enter__(self) -> "_Deadline":
        return self

    def extend(self) -> None:
        self._due = self._loop.time() + self._timeout

    def _wake(self) -> None:
        if self._loop.time() < self._due:
            self._handle = self._loop.call_at(self._due, self._wake)
        else:
            self.expired = True
            self._transport.abort()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._handle.cancel()
        if self.expired and isinstance(exc, _ATTEMPT_ERRORS):
            raise asyncio.TimeoutError() from None


class ClusterClient:
    """One client session against a set of replica addresses.

    Parameters
    ----------
    session:
        Session identifier (scopes the server-side dedup table).
    addresses:
        ``replica name -> (host, port)``; the client walks this in order
        when failing over.  Mutable on purpose -- a restarted replica
        may republish a new port.
    op_timeout, max_attempts, retry_delay:
        Per-attempt timeout, total attempt budget across failovers, and
        the pause between attempts.
    """

    def __init__(
        self,
        session: str,
        addresses: Dict[str, Tuple[str, int]],
        op_timeout: float = 2.0,
        max_attempts: int = 20,
        retry_delay: float = 0.1,
    ) -> None:
        self.session = session
        self.addresses = addresses
        self.op_timeout = op_timeout
        self.max_attempts = max_attempts
        self.retry_delay = retry_delay
        self.stats = SessionStats()
        self._request_seq = 0
        self._conns: Dict[str, _Connection] = {}

    # -- connection management ------------------------------------------
    async def _connection(self, replica: str) -> _Connection:
        """The kept connection to ``replica``, dialled if there is none.

        A kept connection the other side has closed (EOF, reset) is
        replaced here, before the attempt, from the current
        ``addresses`` entry -- a restarted replica may have moved.
        """
        conn = self._conns.get(replica)
        if conn is not None:
            reader, writer = conn
            if not (writer.is_closing() or reader.at_eof()):
                return conn
            self._drop(replica)
        host, port = self.addresses[replica]
        self.stats.connects += 1
        conn = await asyncio.wait_for(
            asyncio.open_connection(host, port), self.op_timeout
        )
        self._conns[replica] = conn
        return conn

    def _drop(self, replica: str) -> None:
        conn = self._conns.pop(replica, None)
        if conn is not None:
            conn[1].transport.abort()

    async def close(self) -> None:
        for replica in list(self._conns):
            self._drop(replica)

    async def _roundtrip(
        self, replica: str, doc: Dict[str, Any]
    ) -> Dict[str, Any]:
        """One request, one reply; a connection that fails is dropped."""
        reader, writer = await self._connection(replica)
        try:
            with _Deadline(writer.transport, self.op_timeout):
                writer.write(json_frame(FrameType.OP, doc))
                await writer.drain()
                return await _read_reply(reader)
        except BaseException:
            # Cancellation included: the reply would still arrive and be
            # taken for the next request's.
            self._drop(replica)
            raise

    # -- operations ------------------------------------------------------
    async def write(
        self,
        register: str,
        value: Any,
        targets: Sequence[str],
        priority: int = 0,
    ) -> OpResult:
        """Write ``register`` at the first responsive target replica.

        ``priority > 0`` exempts the write from server-side overload
        shedding (probes and admin traffic must land even when a replica
        is drowning in bulk load).
        """
        doc = self._request("write", register, value=encode_value(value).hex())
        if priority:
            doc["priority"] = priority
        reply, replica, attempts, latency = await self._with_retries(
            doc, targets
        )
        return _written(reply, register, value, latency, replica, attempts)

    async def write_pipelined(
        self,
        ops: Sequence[Tuple[str, Any]],
        targets: Sequence[str],
        window: int = 16,
    ) -> List[OpResult]:
        """Write ``(register, value)`` ops with up to ``window`` in flight.

        Instead of write-await-write, up to ``window`` requests are on
        the connection before the first reply is awaited; replies are
        matched FIFO (one server handles one connection's OP frames in
        order) and cross-checked by ``request_id``.  Every reply one
        read delivers is handled before the window is refilled, with
        one write.  Per-op latency is measured from the op's own send,
        so queueing inside the window is visible in the percentiles.

        Fault handling degrades, never loses: on any connection error,
        mismatched reply, or server-side rejection, every op not yet
        confirmed is re-driven through the sequential retry/failover
        path *reusing its request id*, so the server's dedup table keeps
        the pipelined attempt and the retry from both executing.
        """
        if not 1 <= window <= DEDUP_WINDOW:
            # Past the server's dedup window a re-driven op could find
            # its cached reply evicted and execute twice.
            raise ValueError(
                f"window must be in 1..{DEDUP_WINDOW}, got {window}"
            )
        docs = [
            self._request("write", register, value=encode_value(value).hex())
            for register, value in ops
        ]
        loop = asyncio.get_event_loop()
        results: List[Optional[OpResult]] = [None] * len(docs)
        sent_at: Dict[int, float] = {}
        next_send = 0
        next_recv = 0
        replica = targets[0]
        try:
            reader, writer = await self._connection(replica)
            frames = FrameReader(reader)
            with _Deadline(writer.transport, self.op_timeout) as deadline:
                while next_recv < len(docs):
                    refill = min(len(docs), next_recv + window)
                    if next_send < refill:
                        now = loop.time()
                        out = []
                        for index in range(next_send, refill):
                            sent_at[index] = now
                            out.append(json_frame(FrameType.OP, docs[index]))
                        writer.write(b"".join(out))
                        next_send = refill
                    await writer.drain()
                    batch = await frames.read()
                    deadline.extend()
                    now = loop.time()
                    for frame in batch:
                        if next_recv == next_send:
                            raise WireDecodeError("unrequested reply")
                        reply = _reply(frame)
                        doc = docs[next_recv]
                        if (
                            not reply.get("ok")
                            or reply.get("request_id") != doc["request_id"]
                        ):
                            raise WireDecodeError(
                                "pipelined reply rejected or out of order: "
                                f"{reply}"
                            )
                        results[next_recv] = _written(
                            reply,
                            *ops[next_recv],
                            now - sent_at[next_recv],
                            replica,
                            1,
                        )
                        next_recv += 1
        except _ATTEMPT_ERRORS:
            pass
        finally:
            if next_recv < len(docs):
                self._drop(replica)  # replies still owed: not reusable
        for index in range(next_recv, len(docs)):
            doc = docs[index]
            started = loop.time()
            reply, replica, attempts, _ = await self._with_retries(
                doc, targets
            )
            results[index] = _written(
                reply,
                *ops[index],
                loop.time() - started,
                replica,
                attempts + 1,
            )
        return [r for r in results if r is not None]

    def _request(self, op: str, register: str, **fields: Any) -> Dict[str, Any]:
        self._request_seq += 1
        return {
            "op": op,
            "session": self.session,
            "request_id": f"{self.session}-{self._request_seq}",
            "register": register,
            **fields,
        }

    async def read(self, register: str, targets: Sequence[str]) -> OpResult:
        doc = self._request("read", register)
        reply, replica, attempts, latency = await self._with_retries(
            doc, targets
        )
        value, _ = decode_value(bytes.fromhex(reply["value"]))
        return OpResult(
            op="read",
            register=register,
            value=value,
            uid=None,
            latency=latency,
            replica=replica,
            attempts=attempts,
        )

    async def status(self, replica: str) -> Dict[str, Any]:
        return await self._roundtrip(replica, {"op": "status"})

    async def admin(self, replica: str, doc: Dict[str, Any]) -> Dict[str, Any]:
        return await self._roundtrip(replica, doc)

    # -- retry machinery -------------------------------------------------
    async def _with_retries(
        self, doc: Dict[str, Any], targets: Sequence[str]
    ) -> Tuple[Dict[str, Any], str, int, float]:
        loop = asyncio.get_event_loop()
        started = loop.time()
        last_error = "no targets"
        last_shed = False
        for attempt in range(self.max_attempts):
            target = targets[attempt % len(targets)]
            if attempt > 0:
                self.stats.retries += 1
                if target != targets[0]:
                    self.stats.failovers += 1
                await asyncio.sleep(self.retry_delay)
            try:
                reply = await self._roundtrip(target, doc)
            except _ATTEMPT_ERRORS as exc:
                last_error = f"{target}: {type(exc).__name__}"
                last_shed = False
                continue
            if reply.get("ok"):
                return reply, target, attempt + 1, loop.time() - started
            last_error = f"{target}: {reply.get('error')}"
            last_shed = bool(reply.get("shed"))
            if last_shed:
                # Typed retryable rejection: the replica is alive but
                # shedding (overloaded or recovering).  Honor its retry
                # hint before the next attempt fails over elsewhere.
                self.stats.sheds += 1
                try:
                    hint = float(reply.get("retry_after", 0.0))
                except (TypeError, ValueError):
                    hint = 0.0
                if hint > 0:
                    await asyncio.sleep(hint)
            else:
                # Refused outright (e.g. "not accepting operations": the
                # replica is shutting down): the next attempt re-reads
                # ``addresses`` instead of asking this incarnation again.
                self._drop(target)
        message = (
            f"session {self.session!r} {doc.get('op')} on "
            f"{doc.get('register')!r} ({last_error})"
        )
        if last_shed:
            raise ReplicaOverloadedError(message, self.max_attempts)
        raise RetryExhaustedError(message, self.max_attempts)


def _written(
    reply: Dict[str, Any],
    register: str,
    value: Any,
    latency: float,
    replica: str,
    attempts: int,
) -> OpResult:
    uid = reply.get("uid")
    return OpResult(
        op="write",
        register=register,
        value=value,
        uid=(uid[0], int(uid[1])) if uid else None,
        latency=latency,
        replica=replica,
        attempts=attempts,
    )


def percentile(latencies: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a latency sample (0.0 when empty)."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]
