"""Tests for the experiment harness (tables, sweeps, experiment shapes)."""

from __future__ import annotations

import pytest

from repro.harness import Table, metadata_comparison, protocol_run
from repro.harness import experiments as E
from repro.workloads import line_placements


# ----------------------------------------------------------------------
# Table rendering
# ----------------------------------------------------------------------
def test_table_render_and_column():
    table = Table("demo", ["a", "b"])
    table.add_row(1, 2.5)
    table.add_row("x", "y")
    text = table.render()
    assert "demo" in text and "2.500" in text
    assert table.column("a") == ["1", "x"]


def test_table_row_arity_checked():
    table = Table("demo", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def test_protocol_run_summary():
    system, summary = protocol_run(line_placements(4), writes=50, seed=5)
    assert summary.ok
    assert summary.metrics.issued == 50


def test_metadata_comparison_shape():
    table = metadata_comparison(
        "t", {"line": line_placements}, [4, 6]
    )
    assert len(table.rows) == 2
    assert table.column("family") == ["line", "line"]


# ----------------------------------------------------------------------
# Experiment shapes (the qualitative claims of the paper)
# ----------------------------------------------------------------------
def test_e1_shape():
    table = E.e1_fig3_share_graph()
    edges = dict(zip(table.column("pair"), table.column("edge?")))
    assert edges["1-2"] == "True" and edges["1-4"] == "False"


def test_e3_claims_disagree():
    claims, fig9 = E.e3_fig6_counterexample()
    col = claims.column("requires i to track x-updates?")
    assert col == ["True", "False"]  # hoop says yes, Theorem 8 says no
    assert len(fig9.rows) == 7


def test_e3_run_is_consistent():
    summary = E.e3_counterexample_run(writes=100)
    assert summary.ok


def test_e4_claims_disagree():
    table = E.e4_fig8b_modified_hoop()
    col = table.column("requires i to track e_kj?")
    assert col == ["False", "True"]  # modified hoop misses a needed edge


def test_e5_all_tight():
    table = E.e5_closed_form_bounds()
    assert all(cell == "True" for cell in table.column("tight"))


def test_e7_ours_never_exceeds_full_track():
    table = E.e7_metadata_tradeoff(sizes=[4, 6])
    for ours, ft in zip(
        table.column("ours-max"), table.column("full-track")
    ):
        assert float(ours) <= float(ft)


def test_e8_compression_never_grows():
    table = E.e8_compression(sizes=[4])
    for ratio in table.column("ratio"):
        assert float(ratio) <= 1.0


def test_e10_ring_breaking_shrinks_metadata():
    table = E.e10_ring_breaking(n=5, writes=60)
    means = [float(v) for v in table.column("mean |E_i|")]
    assert means[1] < means[0]
    assert all(v == "True" for v in table.column("consistent"))


def test_e12_augmented_at_least_plain():
    table = E.e12_client_server()
    for plain, aug in zip(
        table.column("plain |E_i|"), table.column("augmented |E^_i|")
    ):
        assert int(aug) >= int(plain)


def test_e13_multicast_ok():
    table = E.e13_multicast(messages=40)
    assert all(v == "True" for v in table.column("causal delivery OK"))
