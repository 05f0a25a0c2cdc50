"""WAL integrity: CRC32 checksums, quarantine, and repair-by-resync.

Unit tests cover the record checksum and the boot-time
:func:`~repro.tcp.wal.recover_wal` split; the end-to-end tests flip one
byte of a *committed* record on disk (the failure a torn-tail contract
cannot see) and assert the restarted replica quarantines the damaged
log, repairs itself through deep resync / echo-back anti-entropy, and
converges with a clean merged-WAL audit -- corruption degrades to a
resync, never to silent value loss or a crash loop.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.checker import check_history
from repro.core.share_graph import ShareGraph
from repro.errors import ProtocolError, WalCorruptionError
from repro.harness.chaos import store_divergence
from repro.harness.process_chaos import merge_wal_histories
from repro.harness.timeline import corrupt_wal_record
from repro.tcp import TcpCluster, TcpConfig
from repro.tcp.wal import (
    WriteAheadLog,
    quarantine_wal,
    read_wal,
    record_crc,
    recover_wal,
)

PLACEMENTS = {"a": {"x", "y"}, "b": {"x", "z"}, "c": {"y", "z"}}

FAST = TcpConfig(
    heartbeat_interval=0.05, heartbeat_timeout=0.25, backoff_base=0.02
)


def drive(coro):
    return asyncio.run(coro)


def _flip_line(path: str, index: int) -> None:
    """Flip one payload byte of line ``index`` (0-based), keeping it
    valid JSON so only the checksum can catch the damage."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    line = lines[index]
    at = line.find('"v": "') + len('"v": "')
    if at < len('"v": "'):
        at = line.find('"u": "') + len('"u": "')
    assert at >= len('"u": "'), f"no payload field in {line!r}"
    flipped = "0" if line[at] != "0" else "1"
    lines[index] = line[:at] + flipped + line[at + 1 :]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# Unit: checksums and the recovery split
# ----------------------------------------------------------------------
class TestChecksums:
    def _write_log(self, path: str, issues: int = 4) -> None:
        wal = WriteAheadLog(path)
        wal.open()
        for i in range(issues):
            wal.append_issue("x", f"v{i}", float(i), seq=i + 1)
        wal.close()

    def test_crc_is_order_independent_and_excludes_itself(self):
        doc = {"k": "issue", "t": 1.0, "x": "x", "v": "00"}
        crc = record_crc(doc)
        assert record_crc(dict(reversed(list(doc.items())))) == crc
        assert record_crc(dict(doc, c=crc)) == crc

    def test_records_are_the_canonical_serialization(self, tmp_path):
        # The writer serializes the body once and splices the CRC in
        # front; the bytes on disk must stay what one sorted dump of the
        # whole record gives, for every record shape it writes.
        path = str(tmp_path / "r.wal")
        wal = WriteAheadLog(path)
        wal.open()
        wal.append_issue("x", "v", 1.5, seq=7)
        wal.append_issue("é", None, 2.0)  # no "q" field; escaped name
        wal.append_apply("b", b"\x00\xff\x10", 3.25)
        wal.close()
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3
        for line in lines:
            doc = json.loads(line)
            assert line == json.dumps(doc, sort_keys=True)
            assert doc["c"] == record_crc(doc)
        assert [e.kind for e in read_wal(path)] == ["issue", "issue", "apply"]

    def test_bit_flip_fails_strict_read(self, tmp_path):
        path = str(tmp_path / "r.wal")
        self._write_log(path)
        assert len(list(read_wal(path))) == 4
        _flip_line(path, 1)
        with pytest.raises(WalCorruptionError):
            list(read_wal(path))

    def test_bit_flip_on_final_record_is_corruption_not_torn_tail(
        self, tmp_path
    ):
        # A *complete* final record with a bad CRC may already be
        # acknowledged to peers: it must raise / quarantine, unlike an
        # incomplete torn line, which is dropped.
        path = str(tmp_path / "r.wal")
        self._write_log(path)
        _flip_line(path, 3)
        with pytest.raises(WalCorruptionError):
            list(read_wal(path))
        recovery = recover_wal(path)
        assert not recovery.clean
        assert not recovery.torn_tail
        assert recovery.corrupt_lines == [4]
        assert len(recovery.entries) == 3

    def test_recover_wal_splits_prefix_and_salvage(self, tmp_path):
        path = str(tmp_path / "r.wal")
        self._write_log(path, issues=6)
        _flip_line(path, 2)
        recovery = recover_wal(path)
        assert recovery.corrupt_lines == [3]
        assert [e.seq for e in recovery.entries] == [1, 2]
        assert [e.seq for e in recovery.salvaged] == [4, 5, 6]
        assert recovery.total_lines == 6

    def test_torn_tail_is_still_not_corruption(self, tmp_path):
        path = str(tmp_path / "r.wal")
        self._write_log(path, issues=2)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"c": 123, "k": "issue"')  # incomplete line
        recovery = recover_wal(path)
        assert recovery.clean
        assert recovery.torn_tail
        assert len(recovery.entries) == 2

    def test_quarantine_preserves_original_and_rewrites_prefix(
        self, tmp_path
    ):
        path = str(tmp_path / "r.wal")
        self._write_log(path, issues=5)
        with open(path, encoding="utf-8") as fh:
            original = fh.read()
        _flip_line(path, 2)
        recovery = recover_wal(path)
        quarantine = quarantine_wal(recovery)
        assert os.path.exists(quarantine)
        assert quarantine != path
        # The live path is now exactly the valid prefix, re-readable
        # under the strict discipline.
        assert [e.seq for e in read_wal(path)] == [1, 2]
        # The damaged file is preserved verbatim for forensics.
        with open(quarantine, encoding="utf-8") as fh:
            damaged = fh.read()
        assert damaged != original and len(damaged) == len(original)
        # A second quarantine picks a fresh name.
        self._write_log(path, issues=1)
        _flip_line(path, 0)
        recovery = recover_wal(path)
        # single corrupt line -> empty prefix is legal
        second = quarantine_wal(recovery)
        assert second != quarantine and os.path.exists(second)


# ----------------------------------------------------------------------
# End to end: flip a committed record, restart, repair, converge
# ----------------------------------------------------------------------
class TestCorruptionRepair:
    async def _seed_cluster(self, cluster: TcpCluster) -> None:
        ra, rb = cluster.replica("a"), cluster.replica("b")
        for i in range(8):
            await ra.write("x", f"a{i}")
            await rb.write("z", f"b{i}")
        await cluster.settle(timeout=15)

    def _audit(self, wal_dir: str) -> None:
        graph = ShareGraph(PLACEMENTS)
        entries = {
            name: list(read_wal(f"{wal_dir}/replica-{name}.wal"))
            for name in PLACEMENTS
        }
        history, values, view = merge_wal_histories(graph, entries)
        result = check_history(history, graph, require_liveness=True)
        assert result.ok, result.violations
        assert store_divergence(view, values) == []

    def test_corrupt_apply_record_quarantined_and_repaired(self, tmp_path):
        async def scenario():
            wal_dir = str(tmp_path)
            async with TcpCluster(PLACEMENTS, wal_dir, config=FAST) as cluster:
                await self._seed_cluster(cluster)
                cluster.kill("b")
                line = corrupt_wal_record(
                    f"{wal_dir}/replica-b.wal", prefer="apply"
                )
                assert line is not None

                rb2 = await cluster.restart("b")
                assert rb2.stats.wal_corrupt_records >= 1
                assert rb2.stats.wal_quarantines == 1
                assert os.path.exists(f"{wal_dir}/replica-b.wal.corrupt")
                await cluster.settle(timeout=20)

                # Applies replayed past the corruption point came back
                # through the deep resync, not from the damaged log.
                assert rb2.stats.deep_resyncs_requested >= 1
                assert rb2.store["x"] == "a7"
                assert rb2.core.timestamp.get(("a", "b")) == 8
                # Recovered for real: new writes flow again.
                await rb2.write("z", "post-repair")
                await cluster.settle(timeout=20)
                assert cluster.replica("c").store["z"] == "post-repair"
            self._audit(wal_dir)

        drive(scenario())

    def test_corrupt_issue_record_reissued_via_echo(self, tmp_path):
        async def scenario():
            wal_dir = str(tmp_path)
            async with TcpCluster(PLACEMENTS, wal_dir, config=FAST) as cluster:
                await self._seed_cluster(cluster)
                expected_seq = cluster.replica("b").core.seq
                cluster.kill("b")
                line = corrupt_wal_record(
                    f"{wal_dir}/replica-b.wal", prefer="issue"
                )
                assert line is not None

                rb2 = await cluster.restart("b")
                assert rb2.stats.wal_quarantines == 1
                await cluster.settle(timeout=20)

                # Salvaged + echoed issues rebuilt the full sequence:
                # b's own acknowledged writes survived the flip.
                assert rb2.core.seq == expected_seq
                assert rb2.stats.wal_reissued >= 1
                assert rb2.store["z"] == "b7"
                assert cluster.replica("c").store["z"] == "b7"
            self._audit(wal_dir)

        drive(scenario())

    def test_corrupt_final_record_repaired_not_dropped(self, tmp_path):
        async def scenario():
            wal_dir = str(tmp_path)
            async with TcpCluster(PLACEMENTS, wal_dir, config=FAST) as cluster:
                await self._seed_cluster(cluster)
                cluster.kill("b")
                path = f"{wal_dir}/replica-b.wal"
                with open(path, encoding="utf-8") as fh:
                    last = len(fh.read().splitlines()) - 1
                _flip_line(path, last)

                rb2 = await cluster.restart("b")
                assert rb2.stats.wal_quarantines == 1
                await cluster.settle(timeout=20)
                assert rb2.store["x"] == "a7"
                assert rb2.store["z"] == "b7"
            self._audit(wal_dir)

        drive(scenario())

    def test_no_crash_loop_across_two_restarts(self, tmp_path):
        async def scenario():
            wal_dir = str(tmp_path)
            async with TcpCluster(PLACEMENTS, wal_dir, config=FAST) as cluster:
                await self._seed_cluster(cluster)
                cluster.kill("b")
                assert corrupt_wal_record(f"{wal_dir}/replica-b.wal") is not None
                rb2 = await cluster.restart("b")
                await cluster.settle(timeout=20)
                assert rb2.stats.wal_quarantines == 1
                # Crash again *after* repair: the rewritten log replays
                # cleanly -- no second quarantine, no crash loop.
                cluster.kill("b")
                rb3 = await cluster.restart("b")
                await cluster.settle(timeout=20)
                assert rb3.stats.wal_quarantines == 0
                assert rb3.store["x"] == "a7"
            self._audit(wal_dir)

        drive(scenario())
