"""Self-test of the benchmark (not part of the tier-1 suite).

Run it explicitly::

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import compare, gen, run  # noqa: E402
from bench.trace import Tracer  # noqa: E402

RUN = os.path.join(HERE, "run.py")


from bench import load_contract as contract  # noqa: E402


# ----------------------------------------------------------------------
# The set runner end to end, at a twentieth of the run length
# ----------------------------------------------------------------------
def test_small_set_runs_every_workload_and_metric(tmp_path):
    out = tmp_path / "set.json"
    started = time.monotonic()
    child = subprocess.run(
        [sys.executable, RUN, "--seed", "3", "--seconds", "1", "--reps", "1",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )
    assert child.returncode == 0, child.stderr
    assert time.monotonic() - started < 30
    doc = json.loads(out.read_text())
    spec = contract()
    assert set(doc["runs"]) == {w["name"] for w in spec["workloads"]}
    for workload, runs in doc["runs"].items():
        (result,) = runs
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (workload, name)
    # Every end-to-end metric is printed by name for every workload.
    for metric in spec["end_to_end"]:
        assert child.stdout.count(metric["name"]) >= len(spec["workloads"])


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-sparse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
    )
    assert child.returncode != 0
    assert child.stdout.strip() == ""


# ----------------------------------------------------------------------
# Traced runs: every per-layer metric, and the wrappers come off
# ----------------------------------------------------------------------
def _traced_leftovers():
    """Distinct places in ``repro`` still bound to a tracer wrapper."""
    found = set()
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if getattr(value, "_bench_traced", False):
                found.add((mod_name, key))
            if isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if getattr(member, "_bench_traced", False):
                        found.add((value.__module__, value.__qualname__, attr))
    return sorted(found)


@pytest.mark.parametrize("workload,seconds", [("sim-sparse", 0.0), ("tcp-crash", 2.0)])
def test_traced_run_reports_every_layer_and_unwraps(workload, seconds):
    result = run.run_once(workload, seed=5, seconds=seconds, trace=True)
    assert result["correct"]
    spec = contract()
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["bench.cpu_us_per_write"] > 0
    assert values["core.engine.local_write_us_per_write"] > 0
    if workload.startswith("sim"):
        assert values["sim.step_us_per_write"] > 0
        assert values["tcp.wal.append_us_per_write"] == 0
    else:
        assert values["tcp.wal.append_us_per_write"] > 0
        assert values["tcp.runtime.recovery_s"] > 0
        assert values["sim.step_us_per_write"] == 0
    assert _traced_leftovers() == []
    trace_file = os.path.join(HERE, "out", f"trace-{workload}.json")
    with open(trace_file, encoding="utf-8") as fh:
        dumped = json.load(fh)
    assert dumped["kept"] == len(dumped["spans"]) > 0


def test_wrappers_are_found_while_installed():
    from bench import layers

    tracer = Tracer()
    layers.install(tracer)
    try:
        assert tracer.patched > 30
        assert len(_traced_leftovers()) == tracer.patched
    finally:
        tracer.unwrap_all()
    assert _traced_leftovers() == []


# ----------------------------------------------------------------------
# Tracer arithmetic on a synthetic span tree
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_covered_children():
    ticks = iter([0, 10, 30, 40, 70, 100, 200, 260])
    tracer = Tracer(clock=lambda: next(ticks))
    a, b, c = (tracer.name_id(n) for n in "abc")
    fa = tracer.begin(a)        # a: 0..100
    fb = tracer.begin(b)        #   b: 10..30
    tracer.end(fb)
    fb2 = tracer.begin(b)       #   b: 40..70
    tracer.end(fb2)
    tracer.end(fa)
    fc = tracer.begin(c)        # c: 200..260, a root
    tracer.end(fc)
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "total_ns": 100, "self_ns": 50, "units": 0}
    assert summary["b"] == {"calls": 2, "total_ns": 50, "self_ns": 50, "units": 0}
    assert summary["c"]["self_ns"] == 60
    # Self times partition the covered time: nothing is counted twice.
    assert sum(s["self_ns"] for s in summary.values()) == 100 + 60
    by_index = {span[0]: span for span in tracer.spans}
    assert by_index[1][4] == 0 and by_index[2][4] == 0  # b's parent is a
    assert by_index[0][4] == -1 and by_index[3][4] == -1


def test_coroutines_are_charged_only_while_they_run():
    import asyncio

    now = [0]

    def clock():
        now[0] += 1
        return now[0]

    tracer = Tracer(clock=clock)

    class Thing:
        async def work(self):
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            return 7

    tracer.wrap_method(Thing, "work", "thing.work")
    try:
        assert asyncio.run(Thing().work()) == 7
    finally:
        tracer.unwrap_all()
    # Three resumptions (two suspensions): three spans, one tick each.
    assert tracer.summary()["thing.work"] == {
        "calls": 3, "total_ns": 3, "self_ns": 3, "units": 0,
    }
    assert not hasattr(Thing.work, "_bench_traced")


def test_a_silent_tracer_calls_straight_through():
    tracer = Tracer()

    class Thing:
        def work(self):
            return 7

    tracer.wrap_method(Thing, "work", "thing.work")
    try:
        tracer.enabled = False
        assert Thing().work() == 7
        assert tracer.span_count == 0
        tracer.enabled = True
        assert Thing().work() == 7
        assert tracer.span_count == 1
    finally:
        tracer.unwrap_all()


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def _fingerprint(seed: int) -> bytes:
    rng = random.Random(seed)
    tree = gen.tree_placements(rng)
    dense = gen.dense_placements(rng)
    ring = gen.ring_placements()
    return b"|".join([
        gen.fingerprint(tree, gen.write_schedule(rng, tree, 1.0, count=500)),
        gen.fingerprint(dense, gen.write_schedule(rng, dense, 150.0, count=500)),
        gen.fingerprint(
            ring,
            gen.write_schedule(rng, ring, 400.0, duration=1.0),
            gen.read_schedule(rng, ring, 40.0, 1.0),
        ),
    ])


def test_equal_seeds_give_identical_bytes_and_other_seeds_differ():
    assert _fingerprint(11) == _fingerprint(11)
    assert _fingerprint(11) != _fingerprint(12)


def test_generated_placements_have_the_advertised_shape():
    for seed in range(5):
        rng = random.Random(seed)
        tree = gen.tree_placements(rng)
        shared = gen.holders(tree)
        assert len(tree) == 16 and len(shared) == 15
        assert all(len(h) == 2 for h in shared.values())
        degrees = sorted(len(x) for x in tree.values())
        assert degrees == [1] * 9 + [2, 2, 3, 3, 3, 4, 4]
        dense = gen.dense_placements(rng)
        shared = gen.holders(dense)
        assert len(dense) == 24 and len(shared) == 80
        assert all(len(h) == 10 for h in shared.values())
    for op in gen.write_schedule(random.Random(1), tree, 1.0, count=200):
        assert op.targets[0] == op.replica
        assert set(op.targets) == set(gen.holders(tree)[op.register])


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.10) == "same"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.10) == "worse"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.10) == "better"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower", 0.10) == "better"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10) == "unresolved"
    # Every run of one side beats every run of the other: a verdict
    # whatever the spread.
    assert compare.verdict(noisy, [v * 3 for v in noisy], "lower", 0.10) == "worse"
    assert compare.verdict(noisy, [v / 3 for v in noisy], "lower", 0.10) == "better"


def test_seeded_quantities_may_not_move_at_all():
    base = {1: 1.248, 2: 1.251}
    assert compare.exact_verdict(base, dict(base), "lower") == "same"
    assert compare.exact_verdict(base, {1: 1.248, 2: 1.2511}, "lower") == "worse"
    assert compare.exact_verdict(base, {1: 1.2, 2: 1.2}, "lower") == "better"
    assert compare.exact_verdict(base, {3: 1.0}, "lower") == "unresolved"
