"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A system, share graph, or policy was configured inconsistently."""


class UnknownReplicaError(ConfigurationError):
    """A replica identifier does not exist in the share graph."""

    def __init__(self, replica_id: object) -> None:
        super().__init__(f"unknown replica: {replica_id!r}")
        self.replica_id = replica_id


class UnknownRegisterError(ReproError):
    """A register is not stored at the replica that was asked about it."""

    def __init__(self, register: object, replica_id: object) -> None:
        super().__init__(
            f"register {register!r} is not stored at replica {replica_id!r}"
        )
        self.register = register
        self.replica_id = replica_id


class SimulationError(ReproError):
    """The simulation kernel was driven into an invalid state."""


class TransportError(ReproError):
    """The message layer could not (or refused to) move a message."""


class UnknownDestinationError(TransportError, ConfigurationError):
    """A message was sent to a node with no registered handler.

    Derives from both :class:`TransportError` (no handler can take the
    message) and :class:`ConfigurationError` (a destination outside the
    registered nodes is a wiring mistake, and callers catch it as one).
    """

    def __init__(self, destination: object) -> None:
        super().__init__(f"no handler registered for {destination!r}")
        self.destination = destination


class RetryExhaustedError(TransportError):
    """A retransmission/retry budget ran out before an ack or response.

    Raised by the reliable-delivery layer when ``max_attempts`` is bounded,
    and by client sessions whose request retries (including failover) all
    timed out.
    """

    def __init__(self, what: str, attempts: int) -> None:
        super().__init__(f"{what}: gave up after {attempts} attempts")
        self.attempts = attempts


class ReplicaOverloadedError(RetryExhaustedError):
    """Every attempt of a client op was shed by overloaded replicas.

    Raised by :class:`repro.tcp.client.ClusterClient` when the retry
    budget runs out and the *last* rejection was an overload shed -- a
    retryable condition, distinct from replicas being unreachable, so
    load drivers can count back-pressure separately from failures.
    """


class ProtocolError(ReproError):
    """A replica or client observed a protocol invariant violation."""


class WalCorruptionError(ProtocolError):
    """A write-ahead log record failed its checksum or failed to parse.

    Raised by the strict audit-time reader (:func:`repro.tcp.wal.read_wal`)
    for corruption anywhere but the torn final line.  The boot-time path
    (:func:`repro.tcp.wal.recover_wal`) never raises this: it quarantines
    the damaged file and degrades to a deep resync instead.
    """


class WireDecodeError(ProtocolError):
    """Bytes received off the wire could not be decoded.

    Raised (instead of leaking ``struct.error`` / ``IndexError`` /
    ``UnicodeDecodeError``) for truncated, oversized, or corrupt frames,
    varints, values, timestamps, updates, and snapshots.  Derives from
    :class:`ProtocolError` so existing handlers keep working; transports
    catch it specifically to drop a poisoned connection without tearing
    down the replica.
    """


class ConsistencyViolation(ReproError):
    """Raised by the checker (in strict mode) on a safety/liveness breach."""

    def __init__(self, violations: list) -> None:
        lines = "\n".join(str(v) for v in violations)
        super().__init__(f"causal consistency violated:\n{lines}")
        self.violations = list(violations)


class CompressionError(ReproError):
    """A timestamp could not be compressed or decompressed."""

