"""E10b: Saturn-style tree restriction of a whole share graph.

Generalizes the Figure 13 ring breaking: every cross-tree register rides
the overlay, metadata collapses from cycle-rich values to the tree bound,
and re-routed updates pay path-length hops.
"""

from __future__ import annotations

from repro import ShareGraph
from repro.core.timestamp_graph import all_timestamp_graphs
from repro.harness import Table
from repro.optimizations import TreeOverlaySystem, restrict_to_tree
from repro.workloads import grid_placements, ring_placements, uniform_writes
from repro.workloads.operations import run_workload


def _overlay_run(graph, tree, seed=21, writes=120):
    plan = restrict_to_tree(graph, tree)
    system = TreeOverlaySystem(plan, seed=seed)
    stream = uniform_writes(
        graph, writes, seed=seed + 1,
        writable={r: graph.registers_at(r) for r in graph.replicas},
    )
    run_workload(system, stream)
    assert system.check().ok
    assert system.audit_stores() == []
    return plan, system


def test_tree_restriction_sweep(benchmark):
    def sweep():
        table = Table(
            "E10b: tree-restricted communication (Appendix D / Saturn)",
            [
                "graph",
                "tree",
                "mean |E_i| before",
                "mean |E_i| after",
                "rerouted regs",
                "mean hops",
            ],
        )
        cases = [
            (
                "ring-8",
                ShareGraph(ring_placements(8)),
                [(i, i + 1) for i in range(1, 8)],
                "path",
            ),
            (
                "ring-8",
                ShareGraph(ring_placements(8)),
                [(1, i) for i in range(2, 9)],
                "star@1",
            ),
            (
                "grid-3x3",
                ShareGraph(grid_placements(3, 3)),
                [(1, 2), (2, 3), (1, 4), (4, 7), (4, 5), (5, 6), (7, 8), (8, 9)],
                "spanning",
            ),
        ]
        for name, graph, tree, tree_name in cases:
            before = all_timestamp_graphs(graph)
            before_sizes = [len(before[r].edges) for r in graph.replicas]
            plan, system = _overlay_run(graph, tree)
            after = all_timestamp_graphs(plan.share_graph())
            after_sizes = [len(after[r].edges) for r in graph.replicas]
            hops = [
                d.hops for values in system.deliveries.values() for d in values
            ]
            table.add_row(
                name,
                tree_name,
                sum(before_sizes) / len(before_sizes),
                sum(after_sizes) / len(after_sizes),
                len(plan.rerouted),
                sum(hops) / len(hops) if hops else 0.0,
            )
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(table)
    before = [float(v) for v in table.column("mean |E_i| before")]
    after = [float(v) for v in table.column("mean |E_i| after")]
    assert all(a < b for a, b in zip(after, before))
    hops = [float(v) for v in table.column("mean hops")]
    assert all(h >= 1.0 for h in hops)
