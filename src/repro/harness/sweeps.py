"""Reusable experiment building blocks: single runs and metadata sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Tuple

from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem, PolicyFactory, SystemMetrics
from repro.core.timestamp_graph import all_timestamp_graphs
from repro.checker import CheckResult
from repro.harness.report import Table
from repro.network.delays import DelayModel
from repro.optimizations.compression import compressed_length
from repro.workloads.operations import run_workload, uniform_writes


@dataclass
class RunSummary:
    """Outcome of one protocol run: metrics plus the checker verdict."""

    metrics: SystemMetrics
    check: CheckResult
    quiescent: bool

    @property
    def ok(self) -> bool:
        return self.check.ok and self.quiescent


def protocol_run(
    placements: Mapping,
    writes: int = 200,
    seed: int = 0,
    policy_factory: Optional[PolicyFactory] = None,
    delay_model: Optional[DelayModel] = None,
    rate: float = 1.0,
    max_loop_len: Optional[int] = None,
) -> Tuple[DSMSystem, RunSummary]:
    """Run a uniform-write workload and verify it."""
    system = DSMSystem(
        placements,
        policy_factory=policy_factory,
        seed=seed,
        delay_model=delay_model,
        max_loop_len=max_loop_len,
    )
    stream = uniform_writes(system.graph, writes, rate=rate, seed=seed + 1)
    run_workload(system, stream)
    summary = RunSummary(
        metrics=system.metrics(),
        check=system.check(),
        quiescent=system.quiescent(),
    )
    return system, summary


def metadata_comparison(
    name: str,
    placement_families: Mapping[str, Callable[[int], Mapping]],
    sizes: List[int],
) -> Table:
    """Counters per replica: ours (raw + compressed) vs Full-Track vs VC.

    For each topology family and size, reports the mean and max timestamp
    length across replicas for:

    * ``ours``: the exact timestamp graph ``|E_i|`` (Definition 5);
    * ``ours-c``: after Appendix D compression (``I(E_i)``);
    * ``full-track``: all share-graph edges ``|E|``;
    * ``VC``: the length-R vector clock full replication would use (only a
      fair comparator when dummies emulate full replication, but it is the
      reference line of Sections 1 and 4).
    """
    table = Table(
        name,
        [
            "family",
            "R",
            "ours-mean",
            "ours-max",
            "comp-mean",
            "comp-max",
            "full-track",
            "VC",
        ],
    )
    for family, make in placement_families.items():
        for n in sizes:
            graph = ShareGraph(make(n))
            graphs = all_timestamp_graphs(graph)
            ours = [len(graphs[r].edges) for r in graph.replicas]
            comp = [
                compressed_length(graph, r, graphs[r].edges)[0]
                for r in graph.replicas
            ]
            table.add_row(
                family,
                len(graph),
                sum(ours) / len(ours),
                max(ours),
                sum(comp) / len(comp),
                max(comp),
                len(graph.edges),
                len(graph),
            )
    return table
