"""E10 / Figure 13: breaking the ring with virtual registers (a path tree)."""

from __future__ import annotations

from repro.harness import experiments as E


def test_ring_breaking(benchmark):
    table = benchmark(E.e10_ring_breaking)
    print()
    print(table)
    assert all(v == "True" for v in table.column("consistent"))
    means = [float(v) for v in table.column("mean |E_i|")]
    hops = [int(v) for v in table.column("x delivery hops")]
    delays = [float(v) for v in table.column("mean x delay")]
    # Metadata shrinks (cycle bound -> tree bound)...
    assert means[1] < means[0]
    # ...in exchange for multi-hop latency on the re-routed register.
    assert hops[1] > hops[0]
    assert delays[1] > delays[0]
    # Both delays are issue -> arrival at x's other holder: even the
    # direct one crosses a channel (UniformDelay's minimum is 0.5).
    assert delays[0] >= 0.5
