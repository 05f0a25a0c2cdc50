"""Share-graph structure metrics behind the metadata trade-off.

The headline quantity is the **tracking fraction**: ``|E_i| / |E|``, the
share of the system's causal structure one replica must carry.  Full
replication forces 1.0 on everyone; trees push it to the local
neighbourhood; random partial placements land in between, trending up
with replication factor -- the trade-off of Section 1 in one number.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.loops import LoopFinder
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import all_timestamp_graphs
from repro.harness.report import Table
from repro.optimizations.compression import compressed_length
from repro.types import ReplicaId
from repro.workloads import random_placements


def tracking_fraction(graph: ShareGraph) -> Dict[ReplicaId, float]:
    """``|E_i| / |E|`` per replica (1.0 means full-track-equivalent)."""
    total = len(graph.edges)
    if total == 0:
        return {r: 0.0 for r in graph.replicas}
    graphs = all_timestamp_graphs(graph)
    return {r: len(graphs[r].edges) / total for r in graph.replicas}


def loop_length_histogram(
    graph: ShareGraph, anchor: ReplicaId
) -> Dict[int, int]:
    """Witness-loop length distribution for one replica's loop edges.

    Short loops mean dependencies can sneak around quickly (and are cheap
    to track); the histogram explains how far the bounded-loop
    optimization (Appendix D) can cut before it starts dropping edges.
    """
    finder = LoopFinder(graph)
    histogram: Dict[int, int] = {}
    for edge in finder.loop_edges(anchor):
        witness = finder.witness(anchor, edge)
        length = len(witness)
        histogram[length] = histogram.get(length, 0) + 1
    return dict(sorted(histogram.items()))


def density_sweep(
    n: int = 8,
    registers: int = 12,
    factors: Optional[Sequence[int]] = None,
    seeds: Optional[Sequence[int]] = None,
) -> Table:
    """Tracking fraction and compression vs replication factor.

    One row per factor, averaged over seeds: how partial-replication
    flexibility translates into metadata burden.
    """
    factors = list(factors) if factors is not None else [1, 2, 3, 4, 6, n]
    seeds = list(seeds) if seeds is not None else [0, 1, 2]
    table = Table(
        f"tracking fraction vs replication factor (R={n}, {registers} registers)",
        ["factor", "share edges", "mean fraction", "mean counters", "compressed"],
    )
    for factor in factors:
        edge_counts: List[int] = []
        fractions: List[float] = []
        counters: List[float] = []
        compressed: List[float] = []
        for seed in seeds:
            graph = ShareGraph(random_placements(n, registers, factor, seed=seed))
            edge_counts.append(len(graph.edges))
            per_replica = tracking_fraction(graph)
            fractions.append(sum(per_replica.values()) / len(per_replica))
            graphs = all_timestamp_graphs(graph)
            sizes = [len(graphs[r].edges) for r in graph.replicas]
            counters.append(sum(sizes) / len(sizes))
            comp_sizes = [
                compressed_length(graph, r, graphs[r].edges)[0]
                for r in graph.replicas
            ]
            compressed.append(sum(comp_sizes) / len(comp_sizes))
        k = len(seeds)
        table.add_row(
            factor,
            sum(edge_counts) / k,
            sum(fractions) / k,
            sum(counters) / k,
            sum(compressed) / k,
        )
    return table
