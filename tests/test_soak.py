"""Soak harness: timelines, presets, overload shedding, smoke run.

The timeline tests pin the declarative fault schedules (deterministic
under a seed, faults confined to the first ~70% of the run so the tail
shows recovery); the shedding tests assert the load-vs-liveness
contract -- an overloaded replica refuses low-priority writes with a
typed retryable reply while its heartbeats keep flowing, so the failure
detector never declares an overloaded-but-alive replica dead.  The
smoke test runs a real (short) soak over subprocess replicas end to
end.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.errors import ConfigurationError
from repro.harness.report import JsonlWriter
from repro.harness.soak import (
    SoakSpec,
    _sampler,
    _SoakState,
    _throughput_recovered,
    run_soak,
    scenario_config,
    soak_placements,
    timeline_for,
)
from repro.harness.timeline import FaultAction, corrupt_wal_record, downtime
from repro.tcp import TcpCluster, TcpConfig
from repro.tcp.wal import WriteAheadLog, read_wal
from repro.wire.codec import encode_value

PLACEMENTS = {"a": {"x", "y"}, "b": {"x", "z"}, "c": {"y", "z"}}


def drive(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Timelines and presets
# ----------------------------------------------------------------------
class TestTimelines:
    def test_deterministic_under_seed(self):
        spec = SoakSpec(scenario="crash-storm", duration=90, seed=7)
        assert timeline_for("crash-storm", spec) == timeline_for(
            "crash-storm", spec
        )
        other = SoakSpec(scenario="crash-storm", duration=90, seed=8)
        assert timeline_for("crash-storm", spec) != timeline_for(
            "crash-storm", other
        )

    def test_steady_has_no_faults(self):
        assert timeline_for("steady", SoakSpec()) == ()

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            timeline_for("thunderstorm", SoakSpec())

    def test_faults_leave_a_recovery_tail(self):
        for scenario in ("crash-storm", "corrupt-wal", "overload", "burst"):
            spec = SoakSpec(scenario=scenario, duration=60, replicas=5)
            timeline = timeline_for(scenario, spec)
            assert timeline, scenario
            downtime(timeline)  # every preset passes validation
            names = {f"r{i}" for i in range(5)}
            for action in timeline:
                assert action.target in names
                assert (
                    action.time + action.duration <= spec.duration * 0.75
                ), f"{scenario}: {action} leaves no recovery tail"

    def test_crash_storm_rolls_across_replicas(self):
        spec = SoakSpec(scenario="crash-storm", duration=90, replicas=3)
        timeline = timeline_for("crash-storm", spec)
        restarts = [a for a in timeline if a.kind == "restart"]
        assert len(restarts) >= 3
        assert {a.target for a in restarts} == {"r0", "r1", "r2"}
        times = [a.time for a in timeline]
        assert times == sorted(times)

    def test_overload_kills_then_restarts_same_victim(self):
        spec = SoakSpec(scenario="overload", duration=60)
        timeline = timeline_for("overload", spec)
        kinds = [a.kind for a in timeline]
        assert kinds == ["kill", "restart", "slow"]
        assert timeline[0].target == timeline[1].target
        assert timeline[0].time < timeline[1].time
        # The overload preset turns shedding on by default.
        assert scenario_config("overload", None).shed_threshold is not None
        assert scenario_config("steady", None).shed_threshold is None
        # An explicit config always wins.
        custom = TcpConfig(shed_threshold=3)
        assert scenario_config("overload", custom) is custom

    def test_explicit_timeline_overrides_preset(self):
        explicit = (FaultAction(1.0, "kill", "r0"),)
        spec = SoakSpec(scenario="crash-storm", timeline=explicit)
        assert timeline_for("crash-storm", spec) == explicit

    def test_shard_storm_hops_communities_and_pins_its_partition(self):
        spec = SoakSpec(scenario="shard-storm", duration=90, replicas=8)
        timeline = timeline_for("shard-storm", spec)
        restarts = [a.target for a in timeline if a.kind == "restart"]
        assert len(restarts) >= 3 and len(set(restarts)) >= 2
        (partition,) = [a for a in timeline if a.kind == "partition"]
        assert partition.target == sorted(soak_placements(spec))[0]

    def test_burst_draws_the_requested_restarts_and_resets(self):
        from repro.harness.process_chaos import ring_placements
        from repro.harness.timeline import burst_timeline

        ring = ring_placements(5)
        timeline = burst_timeline(ring, kills=2, resets=3, seed=11)
        assert timeline == burst_timeline(ring, kills=2, resets=3, seed=11)
        kinds = [a.kind for a in timeline]
        assert kinds.count("restart") == 2 and kinds.count("reset") == 3
        for action in timeline:
            if action.kind == "reset":  # a link to a real neighbour
                assert set(ring[action.target]) & set(ring[action.detail])
        # Each restart leaves its victim a cooldown before the next fault.
        for now, after in zip(timeline, timeline[1:]):
            if now.kind == "restart":
                assert after.time - now.time >= 0.6


class TestCorruptWalRecord:
    def test_too_short_logs_are_left_alone(self, tmp_path):
        path = str(tmp_path / "r.wal")
        assert corrupt_wal_record(path) is None  # missing file
        wal = WriteAheadLog(path)
        wal.open()
        wal.append_issue("x", "v", 1.0, seq=1)
        wal.close()
        assert corrupt_wal_record(path) is None  # too short to hit mid-file

    def test_flips_a_committed_record_of_the_preferred_kind(self, tmp_path):
        path = str(tmp_path / "r.wal")
        wal = WriteAheadLog(path)
        wal.open()
        for i in range(5):
            wal.append_issue("x", f"v{i}", float(i), seq=i + 1)
        wal.append_apply("b", b"\x01\x02", 9.0)
        wal.append_issue("x", "tail", 10.0, seq=6)
        wal.close()
        line = corrupt_wal_record(path, prefer="apply")
        assert line == 6  # the only apply record, 1-based
        from repro.errors import WalCorruptionError

        with pytest.raises(WalCorruptionError):
            list(read_wal(path))


# ----------------------------------------------------------------------
# The recovery gate and the sampler (pure / stubbed: no processes)
# ----------------------------------------------------------------------
def test_recovery_tail_starts_where_the_last_fault_ends():
    """A trailing ``slow`` window (the overload preset ends with one)
    depresses throughput for its whole duration; those samples are
    *inside* the fault, not the recovery after it."""
    rate = lambda t: 100.0 if t <= 10 or t > 18 else 0.0  # noqa: E731
    samples = [{"t": float(t), "throughput": rate(t)} for t in range(1, 23)]
    slow = {"kind": "fault", "t": 10.0, "action": "slow", "duration": 8.0}
    assert _throughput_recovered(samples, [slow])
    # ...and a run that stays at zero after the window still fails it.
    dead = [dict(s, throughput=0.0) if s["t"] > 18 else s for s in samples]
    assert not _throughput_recovered(dead, [slow])


def test_sampler_divides_by_the_measured_interval():
    """Polling ``status`` takes time of its own -- most of all during the
    stalls the series exists to show -- so a sample's rate is its ops
    over the measured time since the previous sample, not the nominal
    interval."""

    class SlowStatusCluster:
        placements = {"r0": ["x"]}

        def alive(self, name):
            return True

        async def statuses(self, op_timeout):
            await asyncio.sleep(0.3)
            return {}

    async def scenario():
        state = _SoakState()
        spec = SoakSpec(sample_interval=0.1)

        async def load():  # a steady 100 ops/s
            while state.running():
                state.latencies.append(0.001)
                await asyncio.sleep(0.01)

        loader = asyncio.ensure_future(load())
        with JsonlWriter(None) as writer:
            sampler = asyncio.ensure_future(
                _sampler(SlowStatusCluster(), spec, state, writer, time.monotonic())
            )
            await asyncio.sleep(1.3)
            state.stop = True
            samples = await sampler
            await loader
        return samples

    samples = drive(scenario())
    assert len(samples) >= 3
    for sample in samples[1:]:  # the first interval has no poll in it
        assert 0.35 <= sample["elapsed"] <= 0.6
        assert sample["ops"] / sample["elapsed"] == pytest.approx(
            sample["throughput"], abs=0.5
        )
        # 100 ops/s offered; the nominal-interval division said ~400.
        assert sample["throughput"] < 150
        assert sample["replicas"] == {
            "r0": {"alive": True, "status": "unreachable"}
        }


# ----------------------------------------------------------------------
# Overload shedding keeps the failure detector honest
# ----------------------------------------------------------------------
class TestOverloadShedding:
    def _write_doc(self, n: int, register: str, priority: int = 0) -> dict:
        doc = {
            "op": "write",
            "session": "flood",
            "request_id": f"flood-{n}",
            "register": register,
            "value": encode_value(f"v{n}").hex(),
        }
        if priority:
            doc["priority"] = priority
        return doc

    def test_shed_replies_are_typed_and_priority_exempt(self, tmp_path):
        async def scenario():
            config = TcpConfig(
                heartbeat_interval=0.05,
                heartbeat_timeout=0.4,
                shed_threshold=5,
                backoff_base=0.02,
                drain_timeout=0.2,
            )
            async with TcpCluster(
                PLACEMENTS, str(tmp_path), config=config
            ) as cluster:
                ra = cluster.replica("a")
                # Kill x's other sharer: a's outbox to b grows unacked,
                # so the backlog crosses the threshold and stays there.
                cluster.kill("b")
                sheds = 0
                for i in range(30):
                    reply = ra._handle_op(self._write_doc(i, "x"))
                    if not reply["ok"]:
                        assert reply["error"] == "overloaded"
                        assert reply["shed"] is True
                        assert reply["retry_after"] > 0
                        sheds += 1
                    if i % 5 == 0:
                        await asyncio.sleep(0.02)
                assert sheds > 0
                assert ra.stats.ops_shed == sheds
                # Accepted + shed accounts for every attempt: nothing
                # was silently queued past the threshold.
                assert ra.core.seq + sheds == 30

                # Probe/admin traffic is exempt.
                reply = ra._handle_op(self._write_doc(100, "x", priority=1))
                assert reply["ok"], reply

                # The event loop stayed responsive: several heartbeat
                # windows pass with no false suspicion between the two
                # *live* replicas, in either direction.
                await asyncio.sleep(1.2)
                assert not ra.links["c"].suspected
                for events, peer in (
                    (ra.link_events, "c"),
                    (cluster.replica("c").link_events, "a"),
                ):
                    kinds = [e.kind for e in events if e.peer == peer]
                    assert "suspect" not in kinds, kinds

        drive(scenario())

    def test_shedding_off_by_default(self, tmp_path):
        async def scenario():
            config = TcpConfig(drain_timeout=0.2)
            async with TcpCluster(
                PLACEMENTS, str(tmp_path), config=config
            ) as cluster:
                ra = cluster.replica("a")
                cluster.kill("b")
                for i in range(30):
                    assert ra._handle_op(self._write_doc(i, "x"))["ok"]
                assert ra.stats.ops_shed == 0

        drive(scenario())


# ----------------------------------------------------------------------
# End to end (subprocess replicas): a short real soak
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSoakSmoke:
    def test_short_crash_storm_soak(self, tmp_path):
        report_path = str(tmp_path / "series.jsonl")
        spec = SoakSpec(
            scenario="crash-storm",
            replicas=3,
            sessions=2,
            duration=12.0,
            sample_interval=1.0,
            seed=5,
            timeline=(FaultAction(4.0, "restart", "r1", detail="smoke"),),
        )
        report = drive(
            run_soak(spec, str(tmp_path / "work"), report_path=report_path)
        )
        assert report.ok, report.violations
        assert report.load.ops > 0
        assert (report.faults, report.kills, report.resets) == (1, 1, 0)
        assert report.samples >= 8
        assert report.recovered
        assert report.load.p99 >= report.load.p50 > 0

        with open(report_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "header"
        assert kinds[-1] == "summary"
        assert kinds.count("fault") == 1
        samples = [r for r in records if r["kind"] == "sample"]
        assert len(samples) == report.samples
        assert all("replicas" in s and "throughput" in s for s in samples)
        assert all(s["elapsed"] >= spec.sample_interval for s in samples)
        # The header pins the whole configuration for reproducibility:
        # the failed run's timeline can be replayed from its own report.
        header = records[0]
        assert header["scenario"] == "crash-storm"
        assert (
            tuple(FaultAction(**doc) for doc in header["timeline"])
            == spec.timeline
        )
        # The summary keeps every key it had before the load record was
        # embedded, flat.
        assert {
            "ok", "scenario", "violations", "duration", "samples", "ops",
            "errors", "sheds", "retries", "failovers", "connects",
            "faults", "mean_throughput", "peak_throughput", "p50", "p95",
            "p99", "visibility_p95", "recovered", "resyncs", "quarantines",
            "report_path",
        } <= set(records[-1])


def test_jsonl_writer_none_path_is_in_memory_only():
    with JsonlWriter(None) as writer:
        writer.emit({"kind": "sample", "n": 1})
    assert writer.records == [{"kind": "sample", "n": 1}]
