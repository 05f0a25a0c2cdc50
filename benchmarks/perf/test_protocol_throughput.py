"""Protocol throughput suite (``python -m repro bench`` as pytest).

Runs the scenario matrix in quick mode so the suite stays CI-friendly,
prints the table with ``-s``, and asserts the structural properties the
numbers must have (every scenario completes, verifies causally, and the
optimized engine is not slower than the legacy dict-walking policy on
the dense cases, where the speedup target lives).

Absolute ops/sec thresholds are deliberately absent here -- machine
speed varies; the committed ``BENCH_protocol.json`` plus the CLI's
``--check`` mode handle regression gating with an explicit tolerance.
"""

from __future__ import annotations

import pytest

from repro.baselines.legacy import legacy_policy_factory
from repro.harness import bench


@pytest.mark.parametrize("name", sorted(bench.SCENARIOS))
def test_scenario_runs_and_verifies(name: str) -> None:
    result = bench.run_scenario(
        bench.SCENARIOS[name], quick=True, repeats=1
    )
    assert result.writes == bench.SCENARIOS[name].quick_writes
    assert result.ops_per_s > 0
    if bench.SCENARIOS[name].runtime == "sim":
        assert result.events_per_s > 0  # asyncio runs have no agenda
    assert result.messages > 0


def test_quick_document_shape() -> None:
    doc = bench.run_bench(names=["tree-16"], quick=True, repeats=1)
    assert doc["schema"] == bench.SCHEMA
    assert doc["mode"] == "quick"
    row = doc["optimized"]["tree-16"]
    for key in (
        "ops_per_s",
        "events_per_s",
        "wall_s",
        "messages",
        "pending_high_water",
        "writes",
        "replicas",
    ):
        assert key in row


def test_dense_not_slower_than_legacy() -> None:
    """The optimized engine must beat the pre-optimization policy on the
    dense stress case even at quick sizes (full sizes show >=3x; quick
    sizes leave margin for timer noise, so only 1.2x is asserted)."""
    scenario = bench.SCENARIOS["dense-24"]
    before = bench.run_scenario(
        scenario, legacy_policy_factory, quick=True, repeats=3
    )
    after = bench.run_scenario(scenario, quick=True, repeats=3)
    assert after.ops_per_s > 1.2 * before.ops_per_s, (
        f"optimized {after.ops_per_s:.0f} ops/s vs "
        f"legacy {before.ops_per_s:.0f} ops/s"
    )


def test_batched_column_reduces_messages() -> None:
    """The batched column (the scenario's flush window on; the policy
    folds the frames it produces in big-integer lanes) must
    ship measurably fewer wire messages on the dense stress case, and
    still pass the causal-consistency verification run_scenario
    performs."""
    doc = bench.run_bench(
        names=["dense-20"], quick=True, repeats=1, batched=True
    )
    opt = doc["optimized"]["dense-20"]
    bat = doc["batched"]["dense-20"]
    assert bat["messages"] < opt["messages"]
    assert doc["speedup_batched"]["dense-20"] > 0


def test_regression_check_logic() -> None:
    committed = {"optimized": {"a": {"ops_per_s": 1000.0}}}
    ok = bench.check_regression(
        {"optimized": {"a": {"ops_per_s": 800.0}}}, committed, tolerance=0.30
    )
    assert ok.ok
    bad = bench.check_regression(
        {"optimized": {"a": {"ops_per_s": 600.0}}}, committed, tolerance=0.30
    )
    assert not bad.ok and "a" in bad.failures[0]
    only_one = bench.check_regression(
        {"optimized": {"b": {"ops_per_s": 5.0}}}, committed, tolerance=0.30
    )
    assert only_one.ok  # disjoint scenarios are reported, not failed


def test_shard_row_metadata_economy() -> None:
    """The shard row's headline: >=5x fewer metadata bytes per logical
    write than the monolithic share graph, even at quick sizes (byte
    counts are seeded and deterministic, so no noise margin is needed),
    with both measurements present in the emitted document."""
    doc = bench.run_bench(names=["shard-128"], quick=True, repeats=1)
    row = doc["optimized"]["shard-128"]
    assert row["replicas"] == 128
    assert row["metadata_bytes_per_op"] > 0
    assert row["metadata_ratio"] >= 5.0
    # No baseline/batched shadow rows for the shard runtime.
    assert "baseline" not in doc or "shard-128" not in doc["baseline"]
