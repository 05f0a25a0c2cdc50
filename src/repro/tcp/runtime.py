"""TCP replica server: the protocol core behind real sockets.

Each replica is one asyncio TCP server.  Peer links are single duplex
connections (the lexicographically smaller replica id dials, the other
accepts), supervised with jittered exponential backoff and watched by a
heartbeat failure detector.  Durability and catch-up follow one rule:

* every issue and every apply is written to the replica's
  :class:`~repro.tcp.wal.WriteAheadLog`, and flushed *before* its
  consequences (the update fan-out, the cumulative ACK, the client's
  reply) reach the network.  Sends, ACKs and replies are staged, and one
  commit per event-loop wake-up does one WAL flush, then writes one
  ``UPDATE``/``UPDATE_BATCH`` frame per peer, one cumulative ACK per
  sender and one write of the queued replies per client connection;
  every other frame that leaves the process (a ``HELLO`` cursor, an
  outbox replay) flushes first too;
* every update a replica ever sent sits, wire-encoded, in a per-peer
  *outbox* keyed by its channel sequence number (``tau[(me, dst)]``),
  trimmed only by the peer's cumulative ACKs -- and fully rebuilt from
  the WAL on restart, because replaying the log through a fresh
  :class:`~repro.core.engine.ProtocolCore` regenerates the original
  ``Send`` effects;
* anti-entropy is therefore *cursor replay*: a ``HELLO`` on (re)connect
  carries the receiver's delivery cursor and the sender streams the
  unacked suffix of its outbox; a replica that shed its pending buffer
  (``overflow``), observed a sender far ahead (``gap``), or reconnected
  after a suspected partition requests the same replay explicitly with
  ``RESYNC``.

This is the same escalation contract :class:`repro.sync.SyncManager`
implements for the simulator -- "catching up update-by-update through
normal channels has failed; transfer state from a durable source" --
grounded in per-process durable logs instead of the simulator's shared
history, so it needs no cross-process trust: the checker audits the
merged WALs afterwards.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.engine import (
    ConfirmApplied,
    CoreAdapter,
    Effect,
    EscalateSync,
    ProtocolCore,
    RecordHistory,
    RollbackChannels,
    Send,
    SendStabilize,
)
from repro.core.engine.adapter import _AdapterSet
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import EdgeIndexedPolicy, TimestampPolicy
from repro.core.timestamp_graph import all_timestamp_graphs
from repro.errors import ConfigurationError, ProtocolError, WireDecodeError
from repro.gst.policy import GstPolicy, gst_wire_order
from repro.tcp.framing import (
    Frame,
    FrameReader,
    FrameType,
    encode_frame,
    json_frame,
    split_batch_payload,
    split_update_payload,
    update_frames,
    update_payload,
    uvarint_frame,
)
from repro.tcp.wal import (
    WalEntry,
    WalRecovery,
    WriteAheadLog,
    quarantine_wal,
    recover_wal,
)
from repro.types import RegisterName, ReplicaId, Update, UpdateId
from repro.wire.codec import (
    canonical_edge_order,
    decode_stabilize_frame,
    decode_update,
    decode_value,
    encode_stabilize_frame,
    encode_update,
    encode_value,
)


#: Request ids remembered per client session for duplicate suppression.
#: A session retries only requests it has not seen confirmed, and
#: :meth:`~repro.tcp.client.ClusterClient.write_pipelined` refuses to
#: keep more than this many unconfirmed, so the bound costs no
#: exactly-once guarantee -- it only stops the table growing with every
#: write for the life of the process.
DEDUP_WINDOW = 1024


@dataclass(frozen=True)
class TcpConfig:
    """Tuning knobs of the TCP runtime (all durations in seconds)."""

    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 1.5
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    #: Fraction of each backoff delay spread *downward* (full jitter):
    #: the delay is drawn uniformly from ``[ceiling*(1-jitter), ceiling]``
    #: where the ceiling never exceeds ``backoff_cap``.  Each link draws
    #: from its own seeded stream, so N links reconnecting after a
    #: cluster-wide blackout fan out across the window instead of
    #: retrying in one synchronized tick.
    backoff_jitter: float = 0.5
    pending_cap: Optional[int] = 512
    gap_threshold: Optional[int] = 256
    drain_timeout: float = 5.0  # graceful-shutdown flush budget
    hello_timeout: float = 10.0  # first frame on an accepted connection
    #: Timestamp policy: ``"edge"`` (paper's edge-indexed vectors, the
    #: default and the legacy-compatible wire format) or ``"gst"`` (the
    #: global-stabilization protocol of arXiv:1803.05575 -- scalar
    #: clocks on the wire, visibility deferred to the global cut, with
    #: stabilization tables piggybacked on heartbeats).
    policy: str = "edge"
    #: Adaptive overload shedding: when the instantaneous backlog
    #: (pending updates + largest per-peer unacked outbox) exceeds this,
    #: client writes with priority <= 0 are refused with a typed
    #: retryable reply instead of being queued -- the event loop stays
    #: responsive, heartbeats keep flowing, and the failure detector
    #: stops declaring overloaded-but-alive replicas dead.  ``None``
    #: disables shedding.
    shed_threshold: Optional[int] = None
    #: Retry hint (seconds) returned with a shed reply.
    shed_retry_after: float = 0.1


@dataclass(frozen=True)
class LinkEvent:
    """A failure-detector or supervisor transition on one peer link.

    ``kind`` is ``"connect"``, ``"disconnect"``, ``"suspect"`` (heartbeat
    timeout), ``"alive"`` (reconnected after suspicion), or ``"resync"``
    (anti-entropy replay requested or served).
    """

    kind: str
    peer: ReplicaId
    time: float
    detail: str = ""


class PeerLink:
    """Supervised duplex connection to one neighbour replica."""

    def __init__(self, server: "TcpReplicaServer", peer: ReplicaId) -> None:
        self.server = server
        self.peer = peer
        self.is_dialer = str(server.replica_id) < str(peer)
        self.connected = False
        self.suspected = False
        self.last_heard = 0.0
        self._writer: Optional[asyncio.StreamWriter] = None
        self._token: Optional[object] = None
        # Each link draws backoff delays from its own seeded stream:
        # links that fail together (a cluster-wide blackout) must not
        # consume a shared stream in lock-step and retry in one wave.
        self._rng = random.Random(
            f"{server.seed}:{server.replica_id}:{peer}:backoff"
        )

    def _backoff(self, attempt: int) -> float:
        """Full-jitter reconnect delay, hard-capped at ``backoff_cap``.

        The exponential ceiling is ``base * factor**attempt`` clamped to
        ``backoff_cap``; the delay is drawn uniformly from the window
        ``[ceiling * (1 - jitter), ceiling]``.  Unlike a multiplicative
        ``+/- jitter`` term this never exceeds the cap, and the window
        width scales with the ceiling, so after a blackout drives every
        link to the cap the retries of N links spread across
        ``jitter * cap`` seconds instead of synchronizing.
        """
        cfg = self.server.config
        ceiling = min(
            cfg.backoff_cap,
            cfg.backoff_base * (cfg.backoff_factor ** min(attempt, 32)),
        )
        spread = max(0.0, min(1.0, cfg.backoff_jitter))
        return self._rng.uniform(ceiling * (1.0 - spread), ceiling)

    # -- transmit --------------------------------------------------------
    def send_bytes(self, data: bytes) -> bool:
        """Write one frame, after the WAL flush that covers it."""
        writer = self._writer
        if writer is None or writer.is_closing():
            return False
        if self.server.wal.pending:
            self.server.wal.flush()
        try:
            writer.write(data)
        except (ConnectionError, OSError, RuntimeError):
            return False
        return True

    def abort(self) -> None:
        """Forcibly reset the current connection (no flush, no goodbye)."""
        self._detach(self._token, "aborted")

    # -- connection lifecycle -------------------------------------------
    def _attach(self, writer: asyncio.StreamWriter) -> object:
        if self._writer is not None:
            self.abort()  # newest connection wins
        token = object()
        self._writer = writer
        self._token = token
        self.last_heard = self.server._loop_time()
        return token

    def _detach(self, token: Optional[object], detail: str = "") -> None:
        if self._token is not token:
            return  # a newer connection already replaced this one
        writer = self._writer
        self._writer = None
        self._token = None
        if writer is not None:
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self.connected:
            self.connected = False
            self.server._link_event("disconnect", self.peer, detail)

    def send_hello(self) -> None:
        self.send_bytes(
            json_frame(
                FrameType.HELLO,
                {
                    "replica": str(self.server.replica_id),
                    "cursor": self.server.recv_cursor(self.peer),
                },
            )
        )

    async def on_peer_hello(self, doc: Dict[str, Any]) -> None:
        """Cursor exchange: the reconnect-time anti-entropy entry point."""
        try:
            cursor = int(doc["cursor"])
        except (KeyError, TypeError, ValueError):
            raise WireDecodeError(f"malformed HELLO from {self.peer!r}")
        was_suspect = self.suspected
        self.suspected = False
        self.connected = True
        self.last_heard = self.server._loop_time()
        self.server._link_event("connect", self.peer)
        if was_suspect:
            self.server._link_event("alive", self.peer)
        # The peer's cursor is an implicit cumulative ACK.
        self.server._note_acked(self.peer, cursor)
        await self.server._replay_outbox(self, cursor)
        if self.server._take_deep_resync(self.peer):
            # Boot-time WAL corruption regressed our cursor below what
            # this peer has already seen acked: ask for a deep replay
            # (the peer serves below its acked floor, from its own WAL)
            # plus echoes of our own lost issues.
            self.server._request_deep_resync(self)
        elif was_suspect:
            # Reconnect after a suspected partition: escalate to an
            # explicit state pull as well -- the peer may have shed or
            # truncated on its side while we could not see it.
            self.server._request_resync(self, "reconnect after suspicion")

    # -- tasks -----------------------------------------------------------
    async def dial_forever(self) -> None:
        """Connection supervisor: reconnect with capped, jittered backoff."""
        attempt = 0
        while self.server.running:
            address = self.server.addresses.get(self.peer)
            if address is None:
                await asyncio.sleep(self._backoff(attempt))
                attempt += 1
                continue
            host, port = address
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                await asyncio.sleep(self._backoff(attempt))
                attempt += 1
                continue
            token = self._attach(writer)
            self.send_hello()
            got_hello = await self.server._read_loop(
                self, FrameReader(reader), token, []
            )
            self._detach(token)
            attempt = 0 if got_hello else attempt + 1
            await asyncio.sleep(self._backoff(attempt))

    async def heartbeat_forever(self) -> None:
        """Failure detector: ping every interval, suspect on silence."""
        interval = self.server.config.heartbeat_interval
        timeout = self.server.config.heartbeat_timeout
        while self.server.running:
            await asyncio.sleep(interval)
            if not self.connected:
                continue
            silence = self.server._loop_time() - self.last_heard
            if silence > timeout:
                self.suspected = True
                self.server._link_event(
                    "suspect", self.peer, f"silent for {silence:.2f}s"
                )
                self.abort()
            else:
                # Stabilizing policies piggyback their gossip here: the
                # payload is this replica's personalized stabilize frame
                # (empty for edge-indexed mode -- the legacy wire bytes
                # are unchanged).
                payload = self.server._stabilize_payload(self.peer)
                self.send_bytes(encode_frame(FrameType.HEARTBEAT, payload))


@dataclass
class TcpReplicaStats:
    """Runtime-layer counters (the engine's own live in ``core.metrics``)."""

    resyncs_requested: int = 0
    resyncs_served: int = 0
    frames_poisoned: int = 0
    duplicates_dropped: int = 0
    wal_replayed: int = 0
    #: Boot-time WAL integrity (CRC32) accounting.
    wal_corrupt_records: int = 0
    wal_quarantines: int = 0
    wal_reissued: int = 0  # own issues restored (salvage or peer echo)
    wal_lost_records: int = 0  # records neither replayed nor salvageable
    deep_resyncs_requested: int = 0
    deep_resyncs_served: int = 0
    #: Overload shedding + backlog accounting.
    ops_shed: int = 0
    outbox_high_water: int = 0


class TcpReplicaServer(CoreAdapter):
    """One replica: asyncio TCP server + protocol core + WAL + links.

    Parameters
    ----------
    replica_id, placements:
        Identity and the cluster-wide register placement (every replica
        knows the full placement; it is static configuration).
    addresses:
        Shared mutable mapping ``replica id -> (host, port)``.  The
        server publishes its bound address here on :meth:`start` (so
        ``port=0`` ephemeral binds work in-process) and dialers re-read
        it on every attempt (so a restarted peer on a new port is found).
    wal_path:
        The replica's write-ahead log; replayed on :meth:`start`.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        placements: Mapping[ReplicaId, Any],
        addresses: Dict[ReplicaId, Tuple[str, int]],
        wal_path: str,
        config: Optional[TcpConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        seed: int = 0,
    ) -> None:
        self.graph = (
            placements
            if isinstance(placements, ShareGraph)
            else ShareGraph(placements)
        )
        if replica_id not in self.graph:
            raise ConfigurationError(f"replica {replica_id!r} not in placement")
        self.replica_id = replica_id
        self.addresses = addresses
        self.config = config or TcpConfig()
        self.host = host
        self.port = port
        self.wal = WriteAheadLog(wal_path)
        self.stats = TcpReplicaStats()
        self.link_events: List[LinkEvent] = []
        self.on_link_event: Optional[Callable[[LinkEvent], None]] = None
        self.seed = seed
        self._rng = random.Random(f"{seed}:{replica_id}")
        graphs = all_timestamp_graphs(self.graph)
        self._edges = graphs[replica_id].edges
        if self.config.policy == "gst":
            # GST wire timestamps are personalized per channel: the
            # update i ships to j carries exactly [(clock, i), (i, j)].
            # Decode orders are keyed by the *sender* (everything we
            # receive from ``rid`` targets us); encode orders by the
            # *destination*.
            self._orders = {
                rid: gst_wire_order(rid, replica_id)
                for rid in self.graph.replicas
            }
            self._enc_orders = {
                peer: gst_wire_order(replica_id, peer)
                for peer in self.graph.neighbors(replica_id)
            }
        elif self.config.policy == "edge":
            self._orders = {
                rid: canonical_edge_order(graphs[rid].edges)
                for rid in self.graph.replicas
            }
            self._enc_orders = {
                peer: self._orders[replica_id]
                for peer in self.graph.neighbors(replica_id)
            }
        else:
            raise ConfigurationError(
                f"unknown timestamp policy {self.config.policy!r} "
                "(expected 'edge' or 'gst')"
            )
        self._replica_by_name = {str(r): r for r in self.graph.replicas}
        self._register_by_name = {str(x): x for x in self.graph.registers}
        # The skeleton's object-level batch window stays off (this runtime
        # stages wire bytes, see ``_commit``), and RecordHistory is on with
        # no History attached: the WAL is this runtime's history, written
        # by the handler installed below.
        super().__init__(
            replica_id,
            self.graph,
            self._make_policy(),
            # Wall clock, not the loop's monotonic one: WAL record times
            # are merged across processes.
            time.time,
            record_history=True,
            emit_confirm=True,
            size_wire=False,
        )
        self._handlers[RecordHistory] = self._on_record_history
        self.core.sync_armed = True
        self.core.pending_cap = self.config.pending_cap
        self.core.gap_threshold = self.config.gap_threshold
        self.links: Dict[ReplicaId, PeerLink] = {
            peer: PeerLink(self, peer)
            for peer in self.graph.neighbors(replica_id)
        }
        # Durable outbox per peer: channel seq -> wire-encoded update.
        self._outbox: Dict[ReplicaId, Dict[int, bytes]] = {
            peer: {} for peer in self.links
        }
        self._acked: Dict[ReplicaId, int] = {peer: 0 for peer in self.links}
        # Channel seqs currently enqueued-but-unapplied per sender (dedup
        # guard: outbox replays legitimately re-send what is queued, and a
        # true duplicate enqueue would leave a never-ready pending entry).
        # An exact set, not a high-water mark: a live send racing an
        # outbox replay can put seq k on the wire before seq 1.
        self._enqueued: Dict[ReplicaId, Set[int]] = {}
        # What the next commit sends: staged (chanseq, bytes) per peer,
        # the senders owed a cumulative ACK, and the reply frames queued
        # per client connection.  Every update enters the durable outbox
        # the moment it is sent, not at the commit, and outbox entries
        # stay individual so cursor replay after a reconnect is unchanged.
        self._staged: Dict[ReplicaId, List[Tuple[int, bytes]]] = {}
        self._ack_owed: Set[ReplicaId] = set()
        self._replies: Dict[asyncio.StreamWriter, List[bytes]] = {}
        self._commit_due = False
        self._update_bytes: Dict[UpdateId, bytes] = {}
        # session -> request id -> cached reply, oldest first; each
        # session's table holds its last DEDUP_WINDOW requests.
        self._dedup: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self._writing_value: Any = None
        self._apply_uid: Optional[UpdateId] = None
        self._replaying = False
        self._accepting_ops = False
        # WAL corruption recovery: peers still owed a deep-resync
        # request, the reorder buffer of echoed/salvaged own issues
        # (issuer seq -> (register name, value, has_value)), and the
        # write barrier flag (see _recovery_barrier).
        self._deep_resync: Set[ReplicaId] = set()
        self._echo_buffer: Dict[int, Tuple[str, Any, bool]] = {}
        self._recovering = False
        self.running = False
        self._server: Optional[asyncio.AbstractServer] = None
        # Accepted connections still being served; they die with the
        # replica (closing the listener alone leaves them answering).
        self._accepted: Set[asyncio.StreamWriter] = set()
        self._tasks: List[asyncio.Task] = []

    def _make_policy(self) -> TimestampPolicy:
        """A fresh policy instance per the configured timestamp mode.

        Used both for the live core and for the throwaway cores that
        replay the WAL (deep resync); both must agree on wire layout.
        """
        if self.config.policy == "gst":
            return GstPolicy(self.graph, self.replica_id)
        return EdgeIndexedPolicy(
            self.graph, self.replica_id, edges=self._edges
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        recovery = recover_wal(self.wal.path)
        if not recovery.clean:
            # A flipped bit must degrade to a resync, never to a crash
            # loop: move the damaged file aside, keep the valid prefix
            # (the replica simply looks like it crashed earlier), and
            # flag every peer for a deep replay once links come up.
            quarantine_wal(recovery)
            self.stats.wal_corrupt_records += len(recovery.corrupt_lines)
            self.stats.wal_quarantines += 1
        self.wal.open()
        self._replay_wal(recovery.entries)
        if not recovery.clean:
            self._begin_corruption_recovery(recovery)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        bound = self._server.sockets[0].getsockname()
        self.port = bound[1]
        self.addresses[self.replica_id] = (self.host, self.port)
        self.running = True
        self._accepting_ops = True
        for link in self.links.values():
            if link.is_dialer:
                self._tasks.append(asyncio.ensure_future(link.dial_forever()))
            self._tasks.append(asyncio.ensure_future(link.heartbeat_forever()))

    def _replay_wal(self, entries: List[WalEntry]) -> None:
        """Rebuild core state and outboxes from the durable log."""
        self._replaying = True
        try:
            self._feed(self.core, entries)
        finally:
            self._replaying = False
        self.stats.wal_replayed += len(entries)
        if self.core.pending_count:
            raise ProtocolError(
                f"WAL replay of {self.wal.path} left "
                f"{self.core.pending_count} updates undeliverable"
            )
        for peer in self.links:
            self._enqueued[peer] = set()

    # ------------------------------------------------------------------
    # WAL corruption recovery
    # ------------------------------------------------------------------
    def _begin_corruption_recovery(self, recovery: WalRecovery) -> None:
        """Salvage the valid suffix of a quarantined WAL, arm deep resync.

        Issue records past the corruption still identify their issuer
        sequence (``"q"``), so the replica's own acknowledged writes are
        re-executed -- with their *original* update ids -- through the
        live core (re-logged, re-sent); peers that already applied them
        discard the re-sends as stale by channel position.  Apply
        records past the corruption are dropped here and re-delivered by
        the peers' deep replays.  Until every channel counter has caught
        back up with what the peers acked, :meth:`_recovery_barrier`
        refuses new client writes (they would reuse channel slots the
        peers have already passed).
        """
        for entry in recovery.salvaged:
            if entry.kind != "issue":
                continue
            if entry.seq is None or entry.seq <= self.core.seq:
                self.stats.wal_lost_records += 1
                continue
            self._stash_echo(entry.seq, str(entry.register), entry.value, True)
        self._drain_echo_buffer()
        self._recovering = True
        self._deep_resync = set(self.links)

    def _stash_echo(
        self, seq: int, register: str, value: Any, has_value: bool
    ) -> None:
        existing = self._echo_buffer.get(seq)
        if existing is None or (has_value and not existing[2]):
            self._echo_buffer[seq] = (register, value, has_value)

    def _drain_echo_buffer(self) -> None:
        """Re-issue buffered own updates in contiguous issuer-seq order."""
        while True:
            entry = self._echo_buffer.get(self.core.seq + 1)
            if entry is None or not entry[2]:
                return
            del self._echo_buffer[self.core.seq + 1]
            register = self._register_by_name.get(entry[0], entry[0])
            self._writing_value = entry[1]
            self.core.local_write(register, entry[1])
            self.stats.wal_reissued += 1

    def _take_deep_resync(self, peer: ReplicaId) -> bool:
        if peer in self._deep_resync:
            self._deep_resync.discard(peer)
            return True
        return False

    def _request_deep_resync(self, link: PeerLink) -> None:
        self.stats.resyncs_requested += 1
        self.stats.deep_resyncs_requested += 1
        self._link_event(
            "resync", link.peer, "requested deep: wal corruption recovery"
        )
        link.send_bytes(
            json_frame(
                FrameType.RESYNC_FULL,
                {
                    "cursor": self.recv_cursor(link.peer),
                    "seq": self.core.seq,
                },
            )
        )

    def _recovery_barrier(self) -> bool:
        """True while client writes must be refused after WAL corruption.

        A corrupt-WAL boot regressed the replica's channel counters; a
        new write issued now would occupy a channel slot a peer has
        already delivered past, and be discarded as stale -- silent
        value loss.  The barrier holds until every peer's cumulative ack
        (which survives in the peers and returns via HELLO) is no longer
        ahead of our own send counters, i.e. the deep replays and echoes
        have rebuilt everything the cluster had already seen from us.
        Clients see a typed retryable rejection and fail over.
        """
        if not self._recovering:
            return False
        if self._deep_resync or self._echo_buffer:
            return True
        for peer in self.links:
            ours = self.core.timestamp.get((self.replica_id, peer)) or 0
            if self._acked[peer] > ours:
                return True
        self._recovering = False
        return False

    async def _serve_deep_resync(
        self, link: PeerLink, doc: Dict[str, Any]
    ) -> None:
        """Serve a corruption-recovery replay, ignoring the acked floor.

        The requester's delivery cursor regressed below what it had
        already acked, so the normal outbox (trimmed by those acks) no
        longer holds everything it needs: rebuild the full send history
        toward it from our own WAL, stream everything above its cursor,
        and echo back its *own* issues we durably applied past its
        surviving issuer sequence (its only copy may have been in the
        corrupt region).
        """
        try:
            cursor = int(doc["cursor"])
            peer_seq = int(doc["seq"])
        except (KeyError, TypeError, ValueError):
            raise WireDecodeError(
                f"malformed RESYNC_FULL from {link.peer!r}"
            ) from None
        self.stats.resyncs_served += 1
        self.stats.deep_resyncs_served += 1
        self._link_event("resync", link.peer, "serving deep replay")
        self.wal.flush()
        entries = self.wal.read()
        merged = self._sends_from_wal(entries, link.peer)
        merged.update(self._outbox[link.peer])
        if not await self._stream(link, merged, cursor):
            return
        for entry in entries:
            if entry.kind != "apply":
                continue
            src = self._replica_by_name.get(entry.src, entry.src)
            update = self._decode_update(src, entry.update_bytes)
            if update.uid.issuer == link.peer and update.uid.seq > peer_seq:
                link.send_bytes(
                    json_frame(
                        FrameType.ECHO,
                        {"src": str(entry.src), "u": entry.update_bytes.hex()},
                    )
                )

    def _sends_from_wal(
        self, entries: List[WalEntry], peer: ReplicaId
    ) -> Dict[int, bytes]:
        """Regenerate every update ever sent to ``peer``, keyed by chanseq.

        Replaying our WAL through a fresh core reproduces the original
        ``Send`` effects (the core is deterministic in its event order);
        only the sends toward ``peer`` are collected and wire-encoded.
        """
        collected: Dict[int, bytes] = {}
        me = self.replica_id

        def collect(eff: Effect) -> None:
            if eff.__class__ is Send and eff.dst == peer:
                chanseq = eff.update.timestamp.get((me, peer))
                if chanseq is not None:
                    collected[chanseq] = encode_update(
                        eff.update, self._enc_orders[peer]
                    )

        core = ProtocolCore(
            me,
            self.graph,
            self._make_policy(),
            collect,
            clock=time.time,
            record_history=False,
            emit_confirm=False,
            size_wire=False,
        )
        self._feed(core, entries)
        return collected

    def _feed(self, core: ProtocolCore, entries: List[WalEntry]) -> None:
        """Replay durable events through ``core``, in log order."""
        for entry in entries:
            if entry.kind == "issue":
                register = self._register_by_name.get(
                    entry.register, entry.register
                )
                core.local_write(register, entry.value)
            else:
                src = self._replica_by_name.get(entry.src, entry.src)
                core.remote_update(src, self._decode_update(src, entry.update_bytes))

    def _on_echo(self, doc: Dict[str, Any]) -> None:
        """A peer returned one of our own (possibly lost) issues."""
        try:
            src = self._replica_by_name[doc["src"]]
            raw = bytes.fromhex(doc["u"])
        except (KeyError, TypeError, ValueError):
            raise WireDecodeError("malformed ECHO frame") from None
        update = self._decode_update(src, raw)
        uid = update.uid
        if uid.issuer != self.replica_id or uid.seq <= self.core.seq:
            return  # already restored (or never lost)
        self._stash_echo(
            uid.seq,
            str(update.register),
            update.value,
            not update.metadata_only,
        )
        self._drain_echo_buffer()

    async def shutdown(self) -> None:
        """Graceful: commit, replay unacked outbox suffixes, say BYE, close."""
        if not self.running:
            return
        self._accepting_ops = False
        self._commit()
        deadline = self._loop_time() + self.config.drain_timeout
        for peer, link in self.links.items():
            if link.connected:
                await self._replay_outbox(link, self._acked[peer])
        while self._loop_time() < deadline and not self._drained():
            await asyncio.sleep(0.02)
        for link in self.links.values():
            link.send_bytes(encode_frame(FrameType.BYE))
        await asyncio.sleep(0)
        # The last commit: client connections close once their last reply
        # is written (the ``shutdown`` op's own ``{"ok": true}`` among
        # them); the teardown's abort would discard a reply still queued.
        self._commit()
        for writer in self._accepted:
            writer.close()
        self._accepted.clear()
        self._teardown()

    def kill(self) -> None:
        """Abrupt stop: the in-process analogue of SIGKILL.

        No flush, no commit, no BYE, no drain -- only what the WAL already
        made durable survives, which is exactly the crash contract: the
        records and frames staged for the next commit die with the
        process.  Accepted connections are reset along with the links: a
        client holding one open must see the death, not a zombie that
        keeps answering.
        """
        self.wal.discard()
        self._teardown()

    def _teardown(self) -> None:
        self.running = False
        self._accepting_ops = False
        self._staged.clear()
        self._ack_owed.clear()
        self._replies.clear()
        for task in self._tasks:
            task.cancel()
        self._tasks = []
        for link in self.links.values():
            link.abort()
        for writer in self._accepted:
            writer.transport.abort()
        self._accepted.clear()
        if self._server is not None:
            self._server.close()
            self._server = None
        self.wal.close()

    def _drained(self) -> bool:
        return all(
            not outbox or max(outbox) <= self._acked[peer]
            for peer, outbox in self._outbox.items()
        )

    # ------------------------------------------------------------------
    # Protocol-core effect handling
    # ------------------------------------------------------------------
    def _transmit(
        self,
        dst: ReplicaId,
        update: Update,
        metadata_counters: int,
        wire_bytes: int,
    ) -> None:
        """``Send``: into the durable outbox, then staged for the commit."""
        chanseq = update.timestamp.get((self.replica_id, dst))
        if chanseq is None:  # pragma: no cover - incident edges exist
            raise ProtocolError(f"no out-edge toward {dst!r}")
        encoded = encode_update(update, self._enc_orders[dst])
        outbox = self._outbox[dst]
        outbox[chanseq] = encoded
        if len(outbox) > self.stats.outbox_high_water:
            self.stats.outbox_high_water = len(outbox)
        if self._replaying:
            return
        staged = self._staged.get(dst)
        if staged is None:
            self._staged[dst] = [(chanseq, encoded)]
        else:
            staged.append((chanseq, encoded))
        self._commit_soon()

    def _on_send_stabilize(self, eff: SendStabilize) -> None:
        # An explicit stabilization round ships the same frame the
        # heartbeats piggyback (see PeerLink.heartbeat_forever).
        self.links[eff.dst].send_bytes(
            encode_frame(
                FrameType.HEARTBEAT, encode_stabilize_frame(eff.frame)
            )
        )

    def _on_record_history(self, eff: RecordHistory) -> None:
        if eff.kind == "issue":
            if not self._replaying:
                self.wal.append_issue(
                    str(eff.register),
                    self._writing_value,
                    eff.time,
                    seq=eff.uid.seq,
                )
        elif eff.kind == "apply":
            self._apply_uid = eff.uid
        # "visible" records need no durability action: after a restart
        # the WAL replay rebuilds the unstable set and the cut
        # re-converges from the heartbeat gossip.

    def _on_confirm_applied(self, eff: ConfirmApplied) -> None:
        if self._replaying:
            return
        if eff.update.uid == self._apply_uid:
            # A real apply (not a stale-discard confirmation): make it
            # durable before the ACK can reach the sender.
            self._apply_uid = None
            raw = self._update_bytes.pop(eff.update.uid, None)
            if raw is None:
                raw = encode_update(eff.update, self._orders[eff.src])
            self.wal.append_apply(str(eff.src), raw, time.time())
        else:
            self._update_bytes.pop(eff.update.uid, None)
        # One cumulative ACK per sender, after the commit's WAL flush.
        self._ack_owed.add(eff.src)
        self._commit_soon()

    def _on_escalate_sync(self, eff: EscalateSync) -> None:
        if not self._replaying:
            self._escalate(eff.reason)

    def _on_rollback_channels(self, eff: RollbackChannels) -> None:
        # Shed pending updates are unacked at their senders; reset the
        # dedup guard so their replays are accepted again.
        for peer in self.links:
            self._enqueued[peer] = set()

    # -- the commit ------------------------------------------------------
    def _commit_soon(self) -> None:
        """Run :meth:`_commit` once, after this wake-up's callbacks."""
        if not self._commit_due:
            self._commit_due = True
            asyncio.get_event_loop().call_soon(self._commit)

    def _commit(self) -> None:
        """One WAL flush, then what it covers: one update frame per
        peer (split only past ``MAX_FRAME``), one cumulative ACK per
        sender, one write of queued replies per client connection."""
        self._commit_due = False
        self.wal.flush()
        if self._staged:
            staged, self._staged = self._staged, {}
            for dst, members in staged.items():
                link = self.links[dst]
                for frame in update_frames(members):
                    link.send_bytes(frame)
        if self._ack_owed:
            owed, self._ack_owed = self._ack_owed, set()
            for peer in owed:
                link = self.links.get(peer)
                if link is not None:
                    link.send_bytes(
                        uvarint_frame(FrameType.ACK, self.recv_cursor(peer))
                    )
        if self._replies:
            replies, self._replies = self._replies, {}
            for writer, frames in replies.items():
                if not writer.is_closing():
                    writer.write(b"".join(frames))

    def _escalate(self, reason: str) -> None:
        """Anti-entropy escalation: ask every reachable peer to replay."""
        for link in self.links.values():
            if link.connected:
                self._request_resync(link, reason)

    def _request_resync(self, link: PeerLink, reason: str) -> None:
        self.stats.resyncs_requested += 1
        self._link_event("resync", link.peer, f"requested: {reason}")
        link.send_bytes(
            uvarint_frame(FrameType.RESYNC, self.recv_cursor(link.peer))
        )

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Accepted connection: route by first frame (peer vs client)."""
        self._accepted.add(writer)
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._accepted.discard(writer)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        frames = FrameReader(reader)
        try:
            batch = await asyncio.wait_for(
                frames.read(), self.config.hello_timeout
            )
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
            WireDecodeError,
        ):
            writer.transport.abort()
            return
        first = batch[0]
        if first.type is FrameType.HELLO:
            try:
                doc = first.json()
                peer = self._replica_by_name[doc["replica"]]
                link = self.links[peer]
            except (WireDecodeError, KeyError):
                self.stats.frames_poisoned += 1
                writer.transport.abort()
                return
            token = link._attach(writer)
            link.send_hello()
            try:
                await link.on_peer_hello(doc)
                await self._read_loop(link, frames, token, batch[1:])
            except WireDecodeError:
                self.stats.frames_poisoned += 1
            finally:
                link._detach(token)
        elif first.type is FrameType.OP:
            await self._client_loop(batch, frames, writer)
        else:
            writer.transport.abort()

    async def _read_loop(
        self,
        link: PeerLink,
        frames: FrameReader,
        token: object,
        batch: List[Frame],
    ) -> bool:
        """Dispatch peer frames until disconnect; True if HELLO was seen.

        ``batch`` holds frames already read, past the connection's first.
        """
        got_hello = link.connected
        while self.running and link._token is token:
            if not batch:
                try:
                    batch = await frames.read()
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    OSError,
                ):
                    return got_hello
                except WireDecodeError:
                    self.stats.frames_poisoned += 1
                    link.abort()
                    return got_hello
            link.last_heard = self._loop_time()
            try:
                for frame in batch:
                    if not self.running or link._token is not token:
                        return got_hello
                    kind = frame.type
                    if kind is FrameType.UPDATE:
                        chanseq, raw = split_update_payload(frame.payload)
                        self._on_update(link.peer, chanseq, raw)
                    elif kind is FrameType.UPDATE_BATCH:
                        self._on_update_batch(
                            link.peer, split_batch_payload(frame.payload)
                        )
                    elif kind is FrameType.ACK:
                        self._note_acked(link.peer, frame.uvarint())
                    elif kind is FrameType.HELLO:
                        await link.on_peer_hello(frame.json())
                        got_hello = True
                    elif kind is FrameType.RESYNC:
                        self.stats.resyncs_served += 1
                        self._link_event("resync", link.peer, "serving replay")
                        await self._replay_outbox(link, frame.uvarint())
                    elif kind is FrameType.RESYNC_FULL:
                        await self._serve_deep_resync(link, frame.json())
                    elif kind is FrameType.ECHO:
                        self._on_echo(frame.json())
                    elif kind is FrameType.HEARTBEAT:
                        # last_heard already refreshed above; a non-empty
                        # payload is a piggybacked stabilize frame.
                        if frame.payload:
                            self._on_stabilize(link.peer, frame.payload)
                    elif kind is FrameType.BYE:
                        link.suspected = False  # clean goodbye, not a failure
                        return got_hello
                    else:
                        raise WireDecodeError(
                            f"unexpected peer frame {kind!r}"
                        )
            except WireDecodeError:
                self.stats.frames_poisoned += 1
                link.abort()
                return got_hello
            batch = []
        return got_hello

    def _on_update(self, src: ReplicaId, chanseq: int, raw: bytes) -> None:
        self._on_update_batch(src, [(chanseq, raw)])

    def _on_update_batch(
        self, src: ReplicaId, members: List[Tuple[int, bytes]]
    ) -> None:
        """Dedup each member, then deliver the frame in one core call.

        The engine's ``remote_batch`` enqueues every member before a
        single drain; like every apply, the ones it makes are acked by
        the commit.  Stale members (chanseq <= cursor) still go to the
        core: its discard path re-confirms them so the sender trims its
        outbox.
        """
        cursor = self.recv_cursor(src)
        enqueued = self._enqueued.setdefault(src, set())
        # Applied seqs fall out of the guard as the cursor advances.
        enqueued.difference_update(
            {seq for seq in enqueued if seq <= cursor}
        )
        updates: List[Update] = []
        for chanseq, raw in members:
            if chanseq > cursor and chanseq in enqueued:
                # Already enqueued (a replay overlapped the live stream);
                # applying is what will ACK it.
                self.stats.duplicates_dropped += 1
                continue
            update = self._decode_update(src, raw)
            self._update_bytes[update.uid] = raw
            if chanseq > cursor:
                enqueued.add(chanseq)
            updates.append(update)
        if len(updates) == 1:
            self.core.remote_update(src, updates[0])
        elif updates:
            self.core.remote_batch(src, updates)

    def _stabilize_payload(self, peer: ReplicaId) -> bytes:
        """Heartbeat payload toward ``peer``: the personalized stabilize
        frame, or empty when the policy has no stabilization clock."""
        frame = self.core.stabilize_frame_for(peer)
        if frame is None:
            return b""
        return encode_stabilize_frame(frame)

    def _on_stabilize(self, src: ReplicaId, payload: bytes) -> None:
        """Fold a heartbeat-piggybacked stabilize frame into the core."""
        frame = decode_stabilize_frame(payload, src, self._replica_by_name)
        self.core.receive_stabilize(src, frame)

    def _decode_update(self, src: ReplicaId, raw: bytes) -> Update:
        update = decode_update(raw, src, self._orders[src])
        register = self._register_by_name.get(update.register)
        if register is not None and register != update.register:
            update = dataclasses.replace(update, register=register)
        return update

    def _note_acked(self, peer: ReplicaId, cum: int) -> None:
        if cum > self._acked[peer]:
            self._acked[peer] = cum
            outbox = self._outbox[peer]
            for chanseq in [s for s in outbox if s <= cum]:
                del outbox[chanseq]

    async def _replay_outbox(self, link: PeerLink, cursor: int) -> None:
        """Stream the unacked outbox suffix above ``cursor`` to the peer.

        The suffix includes what is staged for this peer, so the replay
        takes it over; the WAL flush that covers it comes with the first
        frame (:meth:`PeerLink.send_bytes`).
        """
        self._staged.pop(link.peer, None)
        floor = max(cursor, self._acked[link.peer])
        await self._stream(link, self._outbox[link.peer], floor)

    async def _stream(
        self, link: PeerLink, updates: Mapping[int, bytes], floor: int
    ) -> bool:
        """Send ``updates`` above ``floor`` one ``UPDATE`` frame each, in
        chanseq order; False if the link went down on the way.  An entry
        an ACK trimmed while the stream drained is skipped."""
        for index, chanseq in enumerate(sorted(updates)):
            raw = updates.get(chanseq)
            if chanseq <= floor or raw is None:
                continue
            payload = update_payload(chanseq, raw)
            if not link.send_bytes(encode_frame(FrameType.UPDATE, payload)):
                return False
            if index % 64 == 63 and link._writer is not None:
                try:
                    await link._writer.drain()
                except (ConnectionError, OSError):
                    return False
        return True

    # ------------------------------------------------------------------
    # Client / admin operations
    # ------------------------------------------------------------------
    async def _client_loop(
        self,
        batch: List[Frame],
        frames: FrameReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer the OP frames of one client connection, in order.

        Replies are queued for the commit, which writes each
        connection's replies once the WAL flush covering them is done;
        a connection that ends is committed before it is reset.
        """
        try:
            while True:
                queued = self._replies.get(writer)
                if queued is None:
                    queued = self._replies[writer] = []
                for frame in batch:
                    if frame.type is not FrameType.OP:
                        return
                    try:
                        reply = self._handle_op(frame.json())
                    except WireDecodeError as exc:
                        reply = {"ok": False, "error": str(exc)}
                    queued.append(json_frame(FrameType.OP_REPLY, reply))
                self._commit_soon()
                try:
                    await writer.drain()
                    batch = await frames.read()
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    OSError,
                    WireDecodeError,
                ):
                    return
        finally:
            if self._replies.get(writer):
                self._commit()
            writer.transport.abort()

    def _handle_op(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        op = doc.get("op")
        request_id = doc.get("request_id")
        session = doc.get("session")
        if op == "write":
            if not self._accepting_ops:
                return {"ok": False, "error": "not accepting operations"}
            seen = None
            if session is not None and request_id is not None:
                seen = self._dedup.setdefault(str(session), {})
                cached = seen.get(str(request_id))
                if cached is not None:
                    return cached  # exactly-once within this incarnation
            if self._recovery_barrier():
                return {
                    "ok": False,
                    "error": "recovering",
                    "shed": True,
                    "retry_after": self.config.shed_retry_after,
                }
            priority = 0
            try:
                priority = int(doc.get("priority", 0) or 0)
            except (TypeError, ValueError):
                pass
            if priority <= 0 and self._overloaded():
                self.stats.ops_shed += 1
                return {
                    "ok": False,
                    "error": "overloaded",
                    "shed": True,
                    "retry_after": self.config.shed_retry_after,
                }
            register = self._register_by_name.get(doc.get("register"))
            if register is None or register not in self.core.store:
                return {"ok": False, "error": "unknown register"}
            try:
                value, _ = decode_value(bytes.fromhex(doc.get("value", "")))
            except (ValueError, WireDecodeError):
                return {"ok": False, "error": "bad value encoding"}
            self._writing_value = value
            uid = self.core.local_write(register, value)
            reply = {
                "ok": True,
                "uid": [str(uid.issuer), uid.seq],
                "request_id": request_id,
            }
            if seen is not None:
                seen[str(request_id)] = reply
                if len(seen) > DEDUP_WINDOW:
                    del seen[next(iter(seen))]  # insertion order: oldest
            return reply
        if op == "read":
            register = self._register_by_name.get(doc.get("register"))
            if register is None or register not in self.core.store:
                return {"ok": False, "error": "unknown register"}
            return {
                "ok": True,
                "value": encode_value(self.core.store[register]).hex(),
                "request_id": request_id,
            }
        if op == "status":
            return self.status()
        if op == "reset_link":
            peer = self._replica_by_name.get(doc.get("peer"))
            link = self.links.get(peer)
            if link is None:
                return {"ok": False, "error": "unknown peer"}
            link.abort()
            return {"ok": True}
        if op == "shutdown":
            asyncio.ensure_future(self.shutdown())
            return {"ok": True}
        if op == "ping":
            return {"ok": True, "replica": str(self.replica_id)}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _overloaded(self) -> bool:
        """Instantaneous backlog vs the shedding threshold (off = never)."""
        threshold = self.config.shed_threshold
        if threshold is None:
            return False
        backlog = self.core.pending_count
        worst = 0
        for peer, outbox in self._outbox.items():
            unacked = len(outbox)
            if unacked > worst:
                worst = unacked
        return backlog + worst > threshold

    def status(self) -> Dict[str, Any]:
        metrics = self.core.metrics
        return {
            "ok": True,
            "replica": str(self.replica_id),
            "seq": self.core.seq,
            "pending": self.core.pending_count,
            "store": {
                str(x): encode_value(v).hex()
                for x, v in self.core.store.items()
            },
            "timestamp": [
                [str(a), str(b), n] for (a, b), n in self.core.timestamp.items()
            ],
            "links": {
                str(peer): {
                    "connected": link.connected,
                    "suspected": link.suspected,
                    "outbox": len(self._outbox[peer]),
                    "acked": self._acked[peer],
                }
                for peer, link in self.links.items()
            },
            "recovering": self._recovering,
            "dedup_entries": sum(len(seen) for seen in self._dedup.values()),
            "metrics": {
                "issued": metrics.issued,
                "applied_remote": metrics.applied_remote,
                "stale_discarded": metrics.stale_discarded,
                "updates_shed": metrics.updates_shed,
                "pending_high_water": metrics.pending_high_water,
                **dataclasses.asdict(self.stats),
            },
        }

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def recv_cursor(self, peer: ReplicaId) -> int:
        """Highest channel sequence applied from ``peer`` (durable)."""
        return self.core.timestamp.get((peer, self.replica_id)) or 0

    async def write(self, register: RegisterName, value: Any) -> UpdateId:
        """In-process write entry point (tests): commits before it
        returns, so the update is durable and on the wire."""
        if self._recovery_barrier():
            # The socket path sheds with a typed retryable reply; the
            # in-process path has no retry loop, so refuse loudly --
            # issuing now would take a channel slot the peers already
            # delivered past and the write would be discarded as stale.
            raise ProtocolError(
                f"replica {self.replica_id!r} is recovering from WAL "
                "corruption and cannot accept writes yet"
            )
        self._writing_value = value
        uid = self.core.local_write(register, value)
        self._commit()
        return uid

    def _loop_time(self) -> float:
        return asyncio.get_event_loop().time()

    def _link_event(self, kind: str, peer: ReplicaId, detail: str = "") -> None:
        event = LinkEvent(kind, peer, time.time(), detail)
        self.link_events.append(event)
        if self.on_link_event is not None:
            self.on_link_event(event)

    def __repr__(self) -> str:
        return (
            f"TcpReplicaServer({self.replica_id!r}, port={self.port}, "
            f"{'up' if self.running else 'down'})"
        )


class TcpCluster(_AdapterSet):
    """An in-process cluster of :class:`TcpReplicaServer` instances.

    Every replica runs in the *same* event loop over real loopback
    sockets -- the configuration used by the cross-runtime differential
    tests, the `tcp-8` benchmark scenario, and the crash-mid-transfer
    regression test.  Process-level isolation lives in
    :mod:`repro.tcp.cluster`.
    """

    def __init__(
        self,
        placements: Mapping[ReplicaId, Any],
        wal_dir: str,
        config: Optional[TcpConfig] = None,
        seed: int = 0,
    ) -> None:
        self.graph = (
            placements
            if isinstance(placements, ShareGraph)
            else ShareGraph(placements)
        )
        self.wal_dir = wal_dir
        self.config = config or TcpConfig()
        self.seed = seed
        self.addresses: Dict[ReplicaId, Tuple[str, int]] = {}
        self.servers: Dict[ReplicaId, TcpReplicaServer] = {
            rid: self._make_server(rid) for rid in self.graph.replicas
        }

    def _make_server(self, rid: ReplicaId) -> TcpReplicaServer:
        return TcpReplicaServer(
            rid,
            self.graph,
            self.addresses,
            wal_path=f"{self.wal_dir}/replica-{rid}.wal",
            config=self.config,
            seed=self.seed,
        )

    async def __aenter__(self) -> "TcpCluster":
        for server in self.servers.values():
            await server.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def replica(self, rid: ReplicaId) -> TcpReplicaServer:
        try:
            return self.servers[rid]
        except KeyError:
            raise ConfigurationError(f"no replica {rid!r}") from None

    async def stop(self) -> None:
        await asyncio.gather(
            *(s.shutdown() for s in self.servers.values() if s.running)
        )

    def kill(self, rid: ReplicaId) -> None:
        self.replica(rid).kill()

    async def restart(self, rid: ReplicaId) -> TcpReplicaServer:
        """Boot a fresh server over the dead replica's WAL (crash recovery)."""
        old = self.replica(rid)
        if old.running:
            old.kill()
        server = self._make_server(rid)
        self.servers[rid] = server
        await server.start()
        return server

    def converged(self) -> bool:
        """True when every running replica has applied everything sent.

        Per directed edge ``(a, b)`` with both ends up, the sender's own
        counter equals the receiver's delivery cursor; plus no replica
        holds buffered updates.  In-flight ACKs do not affect state, so
        this is exactly store/timestamp convergence.
        """
        up = {
            rid: s for rid, s in self.servers.items() if s.running
        }
        for rid, server in up.items():
            if server.core.pending_count:
                return False
        for (a, b) in self.graph.edges:
            if a in up and b in up:
                if up[a].core.timestamp.get((a, b)) != up[b].core.timestamp.get(
                    (a, b)
                ):
                    return False
        return True

    async def settle(self, timeout: float = 30.0) -> None:
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while not self.converged():
            if loop.time() > deadline:
                raise ConfigurationError(
                    "tcp cluster failed to settle within "
                    f"{timeout}s: { {str(r): s.status() for r, s in self.servers.items()} }"
                )
            await asyncio.sleep(0.02)

    def stores(self) -> Dict[ReplicaId, Dict[RegisterName, Any]]:
        return {
            rid: dict(server.core.store)
            for rid, server in self.servers.items()
        }

    def _adapters(self) -> List[TcpReplicaServer]:
        return [s for s in self.servers.values() if s.running]

    async def settle_visibility(self, timeout: float = 30.0) -> None:
        """Settle, then wait for the heartbeat-carried stabilization
        gossip to advance every replica's cut past everything applied."""
        await self.settle(timeout)
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while not self.stable():
            if loop.time() > deadline:
                raise ConfigurationError(
                    "tcp cluster visibility cut failed to advance within "
                    f"{timeout}s: "
                    f"{ {str(r): s.core.unstable_count for r, s in self.servers.items()} }"
                )
            await asyncio.sleep(0.02)

    def visible_stores(self) -> Dict[ReplicaId, Dict[RegisterName, Any]]:
        """Per-replica reader-facing stores (the visible store under a
        stabilizing policy, the applied store otherwise)."""
        out: Dict[ReplicaId, Dict[RegisterName, Any]] = {}
        for rid, server in self.servers.items():
            visible = server.core.visible_store
            out[rid] = dict(server.core.store if visible is None else visible)
        return out
