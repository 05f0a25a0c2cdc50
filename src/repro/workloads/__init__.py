"""Workload substrate: placement/topology generators and operation streams.

The paper's examples (Figures 3, 5, 6, 8, 13) are provided as named
placements so the figure-reproduction benchmarks are exact; parametric
families (trees, cycles, cliques, grids, random placements) drive the
overhead sweeps.
"""

from repro.workloads.topologies import (
    clique_placements,
    cycle_placements,
    fig3_placements,
    fig5_placements,
    fig6_counterexample_placements,
    fig8b_placements,
    grid_placements,
    line_placements,
    random_placements,
    ring_placements,
    star_placements,
    tree_placements,
)
from repro.workloads.operations import (
    OperationStream,
    WriteOp,
    run_workload,
    uniform_writes,
    zipf_writes,
)

__all__ = [
    "clique_placements",
    "cycle_placements",
    "fig3_placements",
    "fig5_placements",
    "fig6_counterexample_placements",
    "fig8b_placements",
    "grid_placements",
    "line_placements",
    "random_placements",
    "ring_placements",
    "star_placements",
    "tree_placements",
    "OperationStream",
    "WriteOp",
    "run_workload",
    "uniform_writes",
    "zipf_writes",
]
