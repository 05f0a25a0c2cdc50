"""Tests for the real-socket TCP runtime (:mod:`repro.tcp`).

Everything here runs an in-process :class:`~repro.tcp.runtime.TcpCluster`:
all replicas share one event loop but talk over real loopback TCP
connections, so framing, connection supervision, heartbeats, WAL
recovery, and cursor-driven anti-entropy are all exercised against the
actual socket path.  Process-level isolation (subprocesses + SIGKILL)
lives in ``test_tcp_cluster.py``.
"""

from __future__ import annotations

import asyncio
import io
import json
import tempfile
from collections import Counter
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.share_graph import ShareGraph
from repro.errors import ProtocolError, RetryExhaustedError, WireDecodeError
from repro.harness.process_chaos import audit_cluster
from repro.tcp import ClusterClient, TcpCluster, TcpConfig
from repro.tcp.client import _Deadline
from repro.tcp.framing import (
    MAX_FRAME,
    Frame,
    FrameReader,
    FrameType,
    decode_frame,
    encode_frame,
    json_frame,
    read_frame,
    split_batch_payload,
    split_update_payload,
    update_frames,
    update_payload,
    uvarint_frame,
)
from repro.tcp.runtime import DEDUP_WINDOW, TcpReplicaServer
from repro.tcp.wal import WalEntry, WriteAheadLog, read_wal, record_crc
from repro.wire.codec import encode_value

PLACEMENTS = {"a": {"x", "y"}, "b": {"x", "z"}, "c": {"y", "z"}}

FAST = TcpConfig(heartbeat_interval=0.05, heartbeat_timeout=0.25)


def drive(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip_all_types(self):
        for frame_type in FrameType:
            wire = encode_frame(frame_type, b"payload")
            body = wire[4:]
            frame = decode_frame(body)
            assert frame.type is frame_type
            assert frame.payload == b"payload"

    def test_json_and_uvarint_helpers(self):
        frame = decode_frame(json_frame(FrameType.HELLO, {"cursor": 3})[4:])
        assert frame.json() == {"cursor": 3}
        frame = decode_frame(uvarint_frame(FrameType.ACK, 300)[4:])
        assert frame.uvarint() == 300

    def test_update_payload_roundtrip(self):
        payload = update_payload(17, b"\x01\x02\x03")
        assert split_update_payload(payload) == (17, b"\x01\x02\x03")

    def test_oversized_frame_rejected(self):
        with pytest.raises(WireDecodeError):
            encode_frame(FrameType.UPDATE, b"\x00" * (MAX_FRAME + 1))

    def test_bad_json_and_trailing_uvarint_raise(self):
        with pytest.raises(WireDecodeError):
            Frame(FrameType.HELLO, b"not json").json()
        with pytest.raises(WireDecodeError):
            Frame(FrameType.HELLO, b"[1, 2]").json()  # not an object
        with pytest.raises(WireDecodeError):
            Frame(FrameType.ACK, b"\x05\x05").uvarint()  # trailing byte

    def test_unknown_frame_type_raises(self):
        with pytest.raises(WireDecodeError):
            decode_frame(b"\xfFpayload")

    def test_read_frame_eof_and_truncation(self):
        async def scenario():
            # Clean EOF and mid-frame EOF surface as IncompleteReadError
            # (the link layer maps it to "peer disconnected").
            reader = asyncio.StreamReader()
            reader.feed_eof()
            with pytest.raises(asyncio.IncompleteReadError):
                await read_frame(reader)

            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(FrameType.HEARTBEAT, b"")[:3])
            reader.feed_eof()
            with pytest.raises(asyncio.IncompleteReadError):
                await read_frame(reader)

            # A corrupt length is poison, not a disconnect.
            reader = asyncio.StreamReader()
            reader.feed_data(
                (MAX_FRAME + 100).to_bytes(4, "big") + b"\x04rest"
            )
            with pytest.raises(WireDecodeError):
                await read_frame(reader)

        drive(scenario())

    def test_frame_reader_returns_every_complete_frame(self):
        async def scenario():
            wire = b"".join(
                uvarint_frame(FrameType.ACK, n) for n in range(5)
            )
            reader = asyncio.StreamReader()
            reader.feed_data(wire[:-2])  # the last frame arrives split
            frames = FrameReader(reader)
            assert [f.uvarint() for f in await frames.read()] == [0, 1, 2, 3]
            reader.feed_data(wire[-2:])
            assert [f.uvarint() for f in await frames.read()] == [4]
            reader.feed_data(wire[:3])
            reader.feed_eof()
            with pytest.raises(asyncio.IncompleteReadError):
                await frames.read()  # end of stream mid-frame

        drive(scenario())

    @pytest.mark.parametrize(
        "poison",
        [
            (MAX_FRAME + 1).to_bytes(4, "big") + b"\x04",  # length bound
            (0).to_bytes(4, "big"),  # empty body
            (1).to_bytes(4, "big") + b"\xff",  # unknown frame type
        ],
    )
    def test_frame_reader_refuses_a_poisoned_read(self, poison):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(uvarint_frame(FrameType.ACK, 7) + poison)
            with pytest.raises(WireDecodeError):
                await FrameReader(reader).read()

        drive(scenario())

    def test_update_frames_split_only_past_max_frame(self):
        members = [(n, bytes([n]) * 40) for n in range(1, 6)]
        (single,) = update_frames(members[:1])
        assert decode_frame(single[4:]).type is FrameType.UPDATE
        (batch,) = update_frames(members)
        frame = decode_frame(batch[4:])
        assert frame.type is FrameType.UPDATE_BATCH
        assert split_batch_payload(frame.payload) == members
        big = [(n, b"u" * (MAX_FRAME // 3)) for n in range(1, 5)]
        frames = update_frames(big)
        assert len(frames) == 2  # three members fill a frame, not four
        assert all(len(f) - 4 <= MAX_FRAME for f in frames)
        rejoined = [
            member
            for f in frames
            for member in split_batch_payload(decode_frame(f[4:]).payload)
        ]
        assert rejoined == big


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
class TestWal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "r.wal")
        wal = WriteAheadLog(path)
        wal.open()
        wal.append_issue("x", "v1", 1.0)
        wal.append_apply("b", b"\x01\x02", 2.0)
        wal.close()
        entries = list(read_wal(path))
        assert entries == [
            WalEntry(kind="issue", time=1.0, register="x", value="v1"),
            WalEntry(kind="apply", time=2.0, src="b", update_bytes=b"\x01\x02"),
        ]

    def test_torn_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "r.wal")
        wal = WriteAheadLog(path)
        wal.open()
        wal.append_issue("x", 1, 1.0)
        wal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"k": "issue", "t": 2.0, "x":')  # torn mid-record
        entries = list(read_wal(path))
        assert len(entries) == 1  # the torn event never "happened"

    def test_corruption_before_the_end_raises(self, tmp_path):
        path = str(tmp_path / "r.wal")
        wal = WriteAheadLog(path)
        wal.open()
        wal.append_issue("x", 1, 1.0)
        wal.append_issue("x", 2, 2.0)
        wal.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[0] = lines[0][:-3]  # corrupt an *acknowledged* record
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ProtocolError):
            list(read_wal(path))

    def test_missing_file_is_empty(self, tmp_path):
        assert list(read_wal(str(tmp_path / "absent.wal"))) == []

    def test_records_wait_for_the_flush(self, tmp_path):
        path = str(tmp_path / "r.wal")
        wal = WriteAheadLog(path)
        wal.open()
        wal.append_issue("x", 1, 1.0, seq=1)
        wal.append_apply("b", b"\x01", 2.0)
        assert len(wal.pending) == 2 and list(read_wal(path)) == []
        wal.flush()
        wal.flush()  # nothing staged: no write, not counted
        assert wal.flushes == 1 and len(list(read_wal(path))) == 2
        wal.append_issue("x", 2, 3.0, seq=2)
        wal.discard()  # what a crash does to staged records
        wal.close()
        assert [e.seq for e in read_wal(path)] == [1, None]

    @given(
        names=st.lists(st.text(), min_size=2, max_size=2),
        value=st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=0, max_value=2**63 - 1),
            st.text(),
            st.binary(),
        ),
        time=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False), st.integers()
        ),
        seq=st.one_of(st.none(), st.integers(min_value=0, max_value=2**63)),
        update=st.binary(),
    )
    @settings(max_examples=300, deadline=None)
    def test_lines_are_the_canonical_serialization(
        self, names, value, time, seq, update
    ):
        # Names with quotes, backslashes and non-ASCII characters, every
        # value type the codec takes: the one-pass line must be what a
        # sorted dump of its own parse gives, CRC included.
        register, src = names
        with tempfile.TemporaryDirectory() as scratch:
            path = f"{scratch}/r.wal"
            wal = WriteAheadLog(path)
            wal.open()
            wal.append_issue(register, value, time, seq=seq)
            wal.append_apply(src, update, time)
            for line in wal.pending:
                doc = json.loads(line)
                assert line == json.dumps(doc, sort_keys=True) + "\n"
                assert doc["c"] == record_crc(doc)
            wal.close()
            issue, apply = read_wal(path)
        assert (issue.register, issue.value, issue.seq) == (
            register, value, seq
        )
        assert issue.time == apply.time == float(time)
        assert (apply.src, apply.update_bytes) == (src, update)


# ----------------------------------------------------------------------
# Cluster basics: replication, convergence, client ops
# ----------------------------------------------------------------------
class TestClusterBasics:
    def test_writes_replicate_and_converge(self, tmp_path):
        async def scenario():
            async with TcpCluster(PLACEMENTS, str(tmp_path)) as cluster:
                await cluster.replica("a").write("x", "vx")
                await cluster.replica("b").write("z", "vz")
                await cluster.replica("c").write("y", "vy")
                await cluster.settle(timeout=15)
                stores = cluster.stores()
                assert stores["a"] == {"x": "vx", "y": "vy"}
                assert stores["b"] == {"x": "vx", "z": "vz"}
                assert stores["c"] == {"y": "vy", "z": "vz"}

        drive(scenario())

    def test_client_dedup_returns_cached_reply(self, tmp_path):
        async def scenario():
            async with TcpCluster(PLACEMENTS, str(tmp_path)) as cluster:
                server = cluster.replica("a")
                doc = {
                    "op": "write",
                    "session": "s",
                    "request_id": "s-1",
                    "register": "x",
                    "value": "",
                }
                doc["value"] = encode_value("once").hex()
                first = server._handle_op(dict(doc))
                second = server._handle_op(dict(doc))  # retried duplicate
                assert first["ok"] and second["ok"]
                assert first["uid"] == second["uid"]
                assert server.core.seq == 1  # only one update issued

        drive(scenario())

    def test_stats_and_status_shape(self, tmp_path):
        async def scenario():
            async with TcpCluster(PLACEMENTS, str(tmp_path)) as cluster:
                await cluster.replica("a").write("x", 1)
                await cluster.settle(timeout=15)
                status = cluster.replica("a").status()
                assert status["replica"] == "a"
                assert status["seq"] == 1
                assert status["pending"] == 0
                assert set(status["links"]) == {"b", "c"}
                assert status["metrics"]["issued"] == 1

        drive(scenario())


# ----------------------------------------------------------------------
# Client sessions: kept connections, the attempt deadline, dedup window
# ----------------------------------------------------------------------
class TestClientConnections:
    def test_alternating_homes_dial_once_each(self, tmp_path):
        async def scenario():
            async with TcpCluster(PLACEMENTS, str(tmp_path)) as cluster:
                client = ClusterClient("s", cluster.addresses)
                loop = asyncio.get_event_loop()
                while not all(
                    link.connected
                    for server in cluster.servers.values()
                    for link in server.links.values()
                ):
                    await asyncio.sleep(0.01)  # peer dials spawn Tasks
                spawned = []

                def counting_factory(loop, coro, **kwargs):
                    spawned.append(coro)
                    return asyncio.Task(coro, loop=loop, **kwargs)

                for i in range(200):
                    if i == 2:  # both homes dialled: count from here
                        loop.set_task_factory(counting_factory)
                    home = "ab"[i % 2]
                    result = await client.write("x", i, [home])
                    assert result.replica == home and result.attempts == 1
                loop.set_task_factory(None)
                # On a kept connection an operation starts no Task,
                # client side or server side.
                assert spawned == []
                await client.status("a")
                await client.admin("b", {"op": "ping"})
                await client.write_pipelined([("x", 200), ("x", 201)], ["a"])
                assert (await client.read("x", ["b"])).attempts == 1
                assert client.stats.connects == 2
                assert client.stats.retries == 0
                await client.close()
                assert client._conns == {}
                await cluster.settle(timeout=15)

        drive(scenario())

    def test_killed_replica_goes_silent_and_its_successor_serves(
        self, tmp_path
    ):
        async def scenario():
            async with TcpCluster(PLACEMENTS, str(tmp_path)) as cluster:
                client = ClusterClient(
                    "s", cluster.addresses, op_timeout=1.0, retry_delay=0.01
                )
                await client.write("x", "before", ["a"])
                dead = cluster.replica("a")
                reader, writer = client._conns["a"]

                cluster.kill("a")
                assert dead._accepted == set()
                # The dead incarnation answers no further frame: the
                # connection it had accepted is reset, not left serving
                # reads from a store that no longer exists.
                writer.write(json_frame(FrameType.OP, {"op": "ping"}))
                with pytest.raises(
                    (asyncio.IncompleteReadError, ConnectionError)
                ):
                    await asyncio.wait_for(read_frame(reader), 5)

                alive = await cluster.restart("a")
                result = await client.write("x", "after", ["a"])
                assert result.attempts <= 2
                assert result.uid == ("a", 2)
                assert alive.core.seq == 2 and dead.core.seq == 1
                assert client.stats.connects == 2
                await client.close()
                await cluster.settle(timeout=15)
                assert cluster.replica("b").store["x"] == "after"

        drive(scenario())

    def test_silent_server_times_the_attempt_out(self):
        async def scenario():
            async def black_hole(reader, writer):
                try:
                    await reader.read()  # accept, never reply
                except ConnectionError:
                    pass
                writer.close()

            server = await asyncio.start_server(black_hole, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_event_loop()
            client = ClusterClient(
                "s",
                {"a": ("127.0.0.1", port)},
                op_timeout=0.05,
                max_attempts=2,
                retry_delay=0.0,
            )
            started = loop.time()
            with pytest.raises(RetryExhaustedError, match="a: TimeoutError"):
                await client.write("x", 1, ["a"])
            assert 0.1 <= loop.time() - started < 2.0
            assert client.stats.connects == 2  # each attempt redialled
            assert client._conns == {}

            # The deadline is a timer, not a Task per awaited step: a
            # hundred guarded attempts leave nothing behind on the loop.
            client.op_timeout, client.max_attempts = 0.005, 1
            await asyncio.sleep(0.05)  # the handlers so far see their EOF
            tasks = len(asyncio.all_tasks())
            for _ in range(100):
                with pytest.raises(RetryExhaustedError):
                    await client.read("x", ["a"])
            await asyncio.sleep(0.05)
            assert len(asyncio.all_tasks()) == tasks
            server.close()
            await server.wait_closed()

        drive(scenario())

    def test_deadline_extends_and_leaves_other_errors_alone(self):
        async def scenario():
            loop = asyncio.get_event_loop()

            class Transport:
                aborted_at = None

                def abort(self):
                    self.aborted_at = loop.time()

            # Progress pushes the expiry out; the single timer re-arms.
            transport = Transport()
            started = loop.time()
            with _Deadline(transport, 0.05) as deadline:
                await asyncio.sleep(0.03)
                deadline.extend()
                await asyncio.sleep(0.03)
                assert transport.aborted_at is None
                await asyncio.sleep(0.05)
            assert deadline.expired
            assert transport.aborted_at - started >= 0.08

            # Expiry turns the aborted connection's error into a
            # timeout; an unexpired deadline passes errors through.
            with pytest.raises(asyncio.TimeoutError):
                with _Deadline(Transport(), 0.0):
                    await asyncio.sleep(0.01)
                    raise ConnectionResetError("aborted")
            with pytest.raises(ConnectionResetError):
                with _Deadline(transport, 5.0) as deadline:
                    raise ConnectionResetError("peer went away")
            assert not deadline.expired

        drive(scenario())

    def test_shutdown_op_still_gets_its_reply(self, tmp_path):
        async def scenario():
            async with TcpCluster(PLACEMENTS, str(tmp_path)) as cluster:
                client = ClusterClient("s", cluster.addresses)
                await client.write("x", 1, ["a"])
                assert await client.admin("a", {"op": "shutdown"}) == {
                    "ok": True
                }
                server = cluster.replica("a")
                deadline = asyncio.get_event_loop().time() + 10
                while server.running:
                    assert asyncio.get_event_loop().time() < deadline
                    await asyncio.sleep(0.02)
                # The kept connection was closed behind the reply, so
                # the session notices before its next attempt.
                reader, _ = client._conns["a"]
                assert await asyncio.wait_for(reader.read(), 5) == b""
                client.max_attempts, client.retry_delay = 2, 0.0
                with pytest.raises(RetryExhaustedError):
                    await client.write("x", 2, ["a"])
                await client.close()

        drive(scenario())

    def test_dedup_window_is_bounded_per_session(self, tmp_path):
        async def scenario():
            async with TcpCluster(PLACEMENTS, str(tmp_path)) as cluster:
                server = cluster.replica("a")
                value = encode_value("v").hex()

                def write(n):
                    return server._handle_op(
                        {
                            "op": "write",
                            "session": "s",
                            "request_id": f"s-{n}",
                            "register": "x",
                            "value": value,
                        }
                    )

                first = write(1)
                for n in range(2, DEDUP_WINDOW + 1):
                    write(n)
                assert server.status()["dedup_entries"] == DEDUP_WINDOW
                # Inside the window a retry is answered from the table.
                assert write(1) == first
                assert server.core.seq == DEDUP_WINDOW
                # The 1,025th request evicts the oldest and only it.
                write(DEDUP_WINDOW + 1)
                assert server.status()["dedup_entries"] == DEDUP_WINDOW
                assert write(2)["uid"] == ["a", 2]
                assert server.core.seq == DEDUP_WINDOW + 1
                assert write(1)["uid"] == ["a", DEDUP_WINDOW + 2]
                # Another session has a window of its own.
                server._handle_op(
                    {
                        "op": "write",
                        "session": "t",
                        "request_id": "t-1",
                        "register": "x",
                        "value": value,
                    }
                )
                assert server.status()["dedup_entries"] == DEDUP_WINDOW + 1

                client = ClusterClient("s", cluster.addresses)
                with pytest.raises(ValueError):
                    await client.write_pipelined(
                        [("x", 1)], ["a"], window=DEDUP_WINDOW + 1
                    )
                await cluster.settle(timeout=15)

        drive(scenario())


# ----------------------------------------------------------------------
# Crash recovery: WAL replay, cursor anti-entropy
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_kill_restart_recovers_from_wal(self, tmp_path):
        async def scenario():
            async with TcpCluster(PLACEMENTS, str(tmp_path)) as cluster:
                ra = cluster.replica("a")
                rb = cluster.replica("b")
                for i in range(10):
                    await ra.write("x", f"a{i}")
                    await rb.write("z", f"b{i}")
                await cluster.settle(timeout=15)

                cluster.kill("b")
                for i in range(10, 20):
                    await ra.write("x", f"a{i}")  # b misses these

                rb2 = await cluster.restart("b")
                assert rb2.stats.wal_replayed > 0
                assert rb2.core.seq == 10  # issuer sequence survived
                await rb2.write("z", "post-restart")
                await cluster.settle(timeout=15)

                assert rb2.store["x"] == "a19"
                assert cluster.replica("c").store["z"] == "post-restart"
                # Recovery must not double-apply: 20 x-updates, once each.
                assert rb2.core.timestamp.get(("a", "b")) == 20

        drive(scenario())

    def test_restarted_replicas_own_writes_survive(self, tmp_path):
        async def scenario():
            config = TcpConfig(backoff_base=0.02)
            async with TcpCluster(
                PLACEMENTS, str(tmp_path), config=config
            ) as cluster:
                rb = cluster.replica("b")
                # Writes issued while both peers are down: nobody but b's
                # WAL ever saw them.
                cluster.kill("a")
                cluster.kill("c")
                for i in range(5):
                    await rb.write("z", f"lonely{i}")
                cluster.kill("b")

                await cluster.restart("a")
                await cluster.restart("c")
                rb2 = await cluster.restart("b")
                assert rb2.core.seq == 5
                await cluster.settle(timeout=20)
                assert cluster.replica("c").store["z"] == "lonely4"

        drive(scenario())


# ----------------------------------------------------------------------
# Failure detection and supervised reconnection
# ----------------------------------------------------------------------
class TestFailureDetector:
    def test_silent_peer_is_suspected_then_recovers(self, tmp_path):
        async def scenario():
            async with TcpCluster(
                PLACEMENTS, str(tmp_path), config=FAST
            ) as cluster:
                ra = cluster.replica("a")
                rb = cluster.replica("b")
                await ra.write("x", 1)
                await cluster.settle(timeout=15)

                # Silence b without closing its sockets: cancel its
                # background tasks (heartbeats + dialers) so the a<->b
                # connection stays ESTABLISHED but goes quiet -- the
                # failure mode only a heartbeat timeout can see.
                for task in rb._tasks:
                    task.cancel()
                rb._tasks = []

                deadline = asyncio.get_event_loop().time() + 10
                link = ra.links["b"]
                while not link.suspected:
                    assert asyncio.get_event_loop().time() < deadline
                    await asyncio.sleep(0.02)
                kinds = [e.kind for e in ra.link_events if e.peer == "b"]
                assert "suspect" in kinds

                # a aborts and redials (a is the dialer for a<->b); b's
                # server socket still accepts, so the link must recover
                # and the reconnect-after-suspicion resync must fire.
                while not link.connected:
                    assert asyncio.get_event_loop().time() < deadline
                    await asyncio.sleep(0.02)
                kinds = [e.kind for e in ra.link_events if e.peer == "b"]
                assert "alive" in kinds
                assert ra.stats.resyncs_requested >= 1

        drive(scenario())

    def test_forced_reset_reconnects_and_delivers(self, tmp_path):
        async def scenario():
            async with TcpCluster(
                PLACEMENTS, str(tmp_path), config=FAST
            ) as cluster:
                ra = cluster.replica("a")
                await ra.write("x", "before")
                await cluster.settle(timeout=15)

                ra.links["b"].abort()  # forced mid-stream connection reset
                await ra.write("x", "after")
                await cluster.settle(timeout=15)
                assert cluster.replica("b").store["x"] == "after"
                kinds = [e.kind for e in ra.link_events if e.peer == "b"]
                assert "disconnect" in kinds
                assert kinds.count("connect") >= 2

        drive(scenario())


# ----------------------------------------------------------------------
# Reconnect backoff: full jitter, no thundering herd
# ----------------------------------------------------------------------
class TestReconnectBackoff:
    def _all_links(self, wal_dir):
        # An 8-clique constructed (not started): 8 servers x 7 links.
        placements = {f"r{i}": {"shared"} for i in range(8)}
        cluster = TcpCluster(placements, wal_dir)
        return [
            link
            for server in cluster.servers.values()
            for link in server.links.values()
        ]

    def test_jittered_delays_stay_under_the_cap(self, tmp_path):
        links = self._all_links(str(tmp_path))
        cap = TcpConfig().backoff_cap
        for attempt in (0, 3, 10, 40):
            for link in links:
                delay = link._backoff(attempt)
                assert 0 < delay <= cap + 1e-9

    def test_no_reconnect_storm_after_a_blackout(self, tmp_path):
        """Many links waking from the same blackout must not redial in
        one tick window: at the capped ceiling, full jitter spreads the
        delays across [cap/2, cap] with no dominant bucket."""
        links = self._all_links(str(tmp_path))
        assert len(links) == 56
        cap = TcpConfig().backoff_cap
        delays = [link._backoff(10) for link in links]  # ceiling == cap
        assert all(cap * 0.5 - 1e-9 <= d <= cap + 1e-9 for d in delays)
        assert max(delays) - min(delays) > cap * 0.3
        # Bucket into 100ms tick windows: no window may capture a
        # majority of the fleet (the amplification the jitter prevents).
        buckets: dict = {}
        for delay in delays:
            buckets[int(delay / 0.1)] = buckets.get(int(delay / 0.1), 0) + 1
        assert max(buckets.values()) <= len(links) * 0.4
        # Per-link sequences are seeded: a rebuilt fleet draws the same
        # delays (reproducible chaos runs), distinct links draw distinct
        # ones (that is where the spread comes from).
        again = self._all_links(str(tmp_path))
        assert [link._backoff(10) for link in again] == delays
        assert len(set(delays)) > len(links) // 2

    def test_zero_jitter_degenerates_to_pure_exponential(self, tmp_path):
        placements = {"a": {"x"}, "b": {"x"}}
        config = TcpConfig(backoff_jitter=0.0)
        cluster = TcpCluster(placements, str(tmp_path), config=config)
        link = cluster.servers["a"].links["b"]
        assert link._backoff(0) == pytest.approx(config.backoff_base)
        assert link._backoff(1) == pytest.approx(
            config.backoff_base * config.backoff_factor
        )
        assert link._backoff(30) == pytest.approx(config.backoff_cap)


# ----------------------------------------------------------------------
# Satellite 3 regression: donor dies mid sync transfer
# ----------------------------------------------------------------------
class TestCrashDuringSyncTransfer:
    def test_donor_killed_mid_outbox_replay(self, tmp_path, monkeypatch):
        """A receiver restarts, the donor starts streaming the missed
        suffix, and the donor is killed mid-transfer.  After the donor
        restarts (recovering its outbox from its WAL), the receiver must
        re-escalate and converge with no unpaid value debts."""
        kill_at = []  # receiver's cursor from "a" when "a" was killed

        async def scenario():
            config = TcpConfig(
                heartbeat_interval=0.05,
                heartbeat_timeout=0.3,
                backoff_base=0.02,
                # The missed suffix must not trip gap escalation into
                # shedding: raise the caps so the transfer itself is the
                # recovery mechanism under test.
                pending_cap=5000,
                gap_threshold=5000,
            )
            async with TcpCluster(
                PLACEMENTS, str(tmp_path), config=config
            ) as cluster:
                ra = cluster.replica("a")
                total = 2000
                cluster.kill("b")
                for i in range(total):
                    await ra.write("x", f"v{i}")

                # Kill the donor as soon as the receiver has applied part
                # of the replay, from inside the receiver's frame dispatch:
                # a poll from this coroutine can miss the window, since
                # the receiver may apply the whole buffered suffix in one
                # event-loop turn.
                on_update = TcpReplicaServer._on_update

                def kill_donor_mid_stream(server, src, chanseq, raw):
                    on_update(server, src, chanseq, raw)
                    if (
                        not kill_at
                        and server.replica_id == "b"
                        and server.recv_cursor("a") > 0
                    ):
                        kill_at.append(server.recv_cursor("a"))
                        cluster.kill("a")

                monkeypatch.setattr(
                    TcpReplicaServer, "_on_update", kill_donor_mid_stream
                )
                rb = await cluster.restart("b")
                deadline = asyncio.get_event_loop().time() + 15
                while not kill_at:
                    assert asyncio.get_event_loop().time() < deadline
                    await asyncio.sleep(0.01)
                assert kill_at[0] < total, "transfer finished too fast"
                monkeypatch.undo()

                ra2 = await cluster.restart("a")
                assert ra2.core.seq == total  # outbox rebuilt from WAL
                await cluster.settle(timeout=30)

                assert rb.recv_cursor("a") == total
                assert rb.store["x"] == f"v{total - 1}"
                for server in cluster.servers.values():
                    assert server.core.value_debt == {}
                    assert server.core.pending_count == 0

        drive(scenario())

    def test_receiver_reset_mid_replay_resumes_from_cursor(self, tmp_path):
        async def scenario():
            config = TcpConfig(
                backoff_base=0.02, pending_cap=5000, gap_threshold=5000
            )
            async with TcpCluster(
                PLACEMENTS, str(tmp_path), config=config
            ) as cluster:
                ra = cluster.replica("a")
                total = 2000
                cluster.kill("b")
                for i in range(total):
                    await ra.write("x", f"v{i}")

                rb = await cluster.restart("b")
                deadline = asyncio.get_event_loop().time() + 15
                while rb.recv_cursor("a") == 0:
                    assert asyncio.get_event_loop().time() < deadline
                    await asyncio.sleep(0)
                # Forced TCP reset mid-transfer, from the receiver side.
                rb.links["a"].abort()
                await cluster.settle(timeout=30)
                assert rb.recv_cursor("a") == total
                assert rb.store["x"] == f"v{total - 1}"

        drive(scenario())


# ----------------------------------------------------------------------
# The commit: one WAL flush, then everything it covers
# ----------------------------------------------------------------------
def _wal_audit(wal_dir):
    """The merged-WAL audit over an in-process cluster's logs."""
    logs = SimpleNamespace(
        placements=PLACEMENTS,
        wal_path=lambda replica: f"{wal_dir}/replica-{replica}.wal",
    )
    return audit_cluster(logs, ShareGraph(PLACEMENTS))


class TestCommit:
    def test_no_frame_leaves_before_the_flush_that_covers_it(
        self, tmp_path, monkeypatch
    ):
        """Every frame a replica writes -- peer or client -- finds its
        WAL with no staged record, across pipelined writes, a RESYNC
        served mid-stream and a HELLO reconnect."""
        written = Counter()
        stale = []
        write = asyncio.StreamWriter.write

        async def scenario():
            async with TcpCluster(
                PLACEMENTS, str(tmp_path), config=FAST
            ) as cluster:

                def owner(writer):
                    for server in cluster.servers.values():
                        if writer in server._accepted or any(
                            link._writer is writer
                            for link in server.links.values()
                        ):
                            return server
                    return None

                def checked_write(writer, data):
                    server = owner(writer)
                    offset = 0
                    while server is not None and offset < len(data):
                        kind = FrameType(data[offset + 4])
                        written[kind] += 1
                        if server.wal.pending:
                            stale.append((server.replica_id, kind))
                        offset += 4 + int.from_bytes(
                            data[offset : offset + 4], "big"
                        )
                    return write(writer, data)

                monkeypatch.setattr(
                    asyncio.StreamWriter, "write", checked_write
                )
                ra, rb = cluster.replica("a"), cluster.replica("b")
                client = ClusterClient("pipe", cluster.addresses)
                ops = [("x", f"p{n}") for n in range(512)]
                load = asyncio.ensure_future(
                    client.write_pipelined(ops, ["a"], window=16)
                )
                while rb.recv_cursor("a") < 32:
                    await asyncio.sleep(0)
                rb._request_resync(rb.links["a"], "mid-stream")
                while not ra.stats.resyncs_served:
                    await asyncio.sleep(0)
                rb.links["a"].abort()  # "a" dials again: HELLO both ways
                assert len(await load) == 512
                await client.close()
                while not rb.links["a"].connected:
                    await asyncio.sleep(0.01)
                await cluster.settle(timeout=15)
                assert rb.store["x"] == "p511"

        drive(scenario())
        assert stale == []
        for kind in (FrameType.ACK, FrameType.OP_REPLY, FrameType.HELLO):
            assert written[kind] > 0, kind
        assert written[FrameType.UPDATE] + written[FrameType.UPDATE_BATCH] > 0

    def test_kill_between_staging_and_commit_loses_no_acked_write(
        self, tmp_path, monkeypatch
    ):
        """Killed with issues staged and their replies queued: restart,
        and every write the client saw acknowledged is in the WAL."""
        handle_op = TcpReplicaServer._handle_op
        staged_at_kill = []

        def kill_mid_commit(server, doc):
            reply = handle_op(server, doc)
            if (
                server.replica_id == "a"
                and not staged_at_kill
                and server.core.seq == 40
            ):
                staged_at_kill.append(len(server.wal.pending))
                server.kill()
            return reply

        monkeypatch.setattr(TcpReplicaServer, "_handle_op", kill_mid_commit)

        async def scenario():
            async with TcpCluster(
                PLACEMENTS, str(tmp_path), config=FAST
            ) as cluster:
                client = ClusterClient(
                    "pipe", cluster.addresses, op_timeout=1.0, retry_delay=0.05
                )
                ops = [("x", f"p{n}") for n in range(64)]
                load = asyncio.ensure_future(
                    client.write_pipelined(ops, ["a"], window=16)
                )
                while not staged_at_kill:
                    await asyncio.sleep(0)
                await cluster.restart("a")
                results = await load
                await client.close()
                await cluster.settle(timeout=15)
                return results

        results = drive(scenario())
        assert staged_at_kill and staged_at_kill[0] > 0
        assert len(results) == 64
        durable = {
            (entry.seq, entry.value)
            for entry in read_wal(str(tmp_path / "replica-a.wal"))
            if entry.kind == "issue"
        }
        assert {(r.uid[1], r.value) for r in results} <= durable
        violations, events = _wal_audit(str(tmp_path))
        assert violations == [] and events > 0

    def test_replay_skips_entries_acked_while_it_drained(self, tmp_path):
        server = TcpReplicaServer(
            "a", PLACEMENTS, {}, wal_path=str(tmp_path / "a.wal")
        )
        outbox = server._outbox["b"]
        for chanseq in range(1, 201):
            outbox[chanseq] = b"u%d" % chanseq
        sent = []

        class Writer:
            def is_closing(self):
                return False

            def write(self, data):
                payload = decode_frame(data[4:]).payload
                sent.append(split_update_payload(payload)[0])

            async def drain(self):
                server._note_acked("b", 100)  # an ACK lands mid-replay

        server.links["b"]._writer = Writer()
        drive(server._replay_outbox(server.links["b"], 0))
        assert sent == list(range(1, 65)) + list(range(101, 201))

    def test_pipelined_window_costs_one_flush_per_commit(self, tmp_path):
        async def scenario():
            async with TcpCluster(PLACEMENTS, str(tmp_path)) as cluster:
                ra = cluster.replica("a")
                client = ClusterClient("pipe", cluster.addresses)
                before = ra.wal.flushes
                ops = [("x", f"p{n}") for n in range(64)]
                results = await client.write_pipelined(ops, ["a"], window=16)
                flushes = ra.wal.flushes - before
                await client.close()
                await cluster.settle(timeout=15)
                return results, flushes

        results, flushes = drive(scenario())
        assert len(results) == 64
        assert 1 <= flushes <= 8  # one per issue would be 64


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    def test_shutdown_flushes_unacked_frames(self, tmp_path):
        async def scenario():
            async with TcpCluster(PLACEMENTS, str(tmp_path)) as cluster:
                ra = cluster.replica("a")
                for i in range(50):
                    await ra.write("x", f"v{i}")
                # Shut the writer down immediately: the drain phase must
                # push every unacked frame out before the sockets close.
                await ra.shutdown()
                await cluster.settle(timeout=15)
                assert cluster.replica("b").store["x"] == "v49"

        drive(scenario())
