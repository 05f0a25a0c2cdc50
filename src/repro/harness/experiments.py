"""One function per experiment in the DESIGN.md index (E1-E14).

Each function regenerates the rows behind a paper figure or quantitative
claim and returns a :class:`~repro.harness.report.Table`.  The benchmark
modules print these tables and assert the paper's qualitative shape
(who wins, what is tight, where crossovers fall).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.baselines import full_track_policy
from repro.clientserver import (
    ClientAssignment,
    ClientServerSystem,
    all_augmented_timestamp_graphs,
)
from repro.core.hoops import (
    belongs_to_minimal_x_hoop,
    hoop_tracked_edges,
)
from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem
from repro.core.timestamp_graph import all_timestamp_graphs
from repro.harness.report import Table
from repro.harness.sweeps import metadata_comparison, protocol_run
from repro.lowerbound import (
    algorithm_counters,
    clique_number_bound,
    conflict_graph,
    cycle_lower_bound_counters,
    greedy_chromatic_upper_bound,
    tree_lower_bound_counters,
)
from repro.multicast import CausalGroupMulticast
from repro.network.delays import LooseSynchronyDelay
from repro.optimizations import (
    TreeOverlaySystem,
    add_dummy_registers,
    bounded_policy_factory,
    compressed_length,
    emulate_full_replication,
    false_dependencies,
    neighbor_closure_dummies,
    restrict_to_tree,
)
from repro.workloads import (
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
    uniform_writes,
    run_workload,
)


def _edge_str(e) -> str:
    return f"e({e[0]},{e[1]})"


# ----------------------------------------------------------------------
# E1 -- Figure 3: the share graph of the 4-replica example
# ----------------------------------------------------------------------
def e1_fig3_share_graph() -> Table:
    graph = ShareGraph(fig3_placements())
    table = Table(
        "E1 / Figure 3: share graph of X1={x} X2={x,y} X3={y,z} X4={z}",
        ["pair", "X_ij", "edge?"],
    )
    replicas = graph.replicas
    for idx, i in enumerate(replicas):
        for j in replicas[idx + 1 :]:
            shared = ",".join(sorted(map(str, graph.shared(i, j)))) or "-"
            table.add_row(f"{i}-{j}", shared, graph.is_edge(i, j))
    return table


# ----------------------------------------------------------------------
# E2 -- Figure 5: timestamp graph of replica 1
# ----------------------------------------------------------------------
def e2_fig5_timestamp_graph() -> Table:
    graph = ShareGraph(fig5_placements())
    graphs = all_timestamp_graphs(graph)
    table = Table(
        "E2 / Figure 5: timestamp graphs (note e43 in G_1 but e34 not)",
        ["replica", "|E_i|", "incident", "loop edges"],
    )
    for r in graph.replicas:
        g = graphs[r]
        table.add_row(
            r,
            len(g.edges),
            len(g.incident),
            " ".join(sorted(_edge_str(e) for e in g.loop_edges)),
        )
    return table


# ----------------------------------------------------------------------
# E3 -- Figures 6/8a + 9: the Helary-Milani counter-example
# ----------------------------------------------------------------------
def e3_fig6_counterexample() -> Tuple[Table, Table]:
    """Returns (hoop-vs-theorem table, figure 9 timestamp graph table)."""
    graph = ShareGraph(fig6_counterexample_placements())
    graphs = all_timestamp_graphs(graph)
    claims = Table(
        "E3 / Figure 6: minimal x-hoop vs Theorem 8 at replica i",
        ["criterion", "requires i to track x-updates?"],
    )
    hoop = belongs_to_minimal_x_hoop(graph, "i", "x")
    tracked = ("j", "k") in graphs["i"].edges or ("k", "j") in graphs["i"].edges
    claims.add_row("Helary-Milani minimal x-hoop (Def. 18)", hoop)
    claims.add_row("timestamp graph G_i (Def. 5 / Thm. 8)", tracked)

    fig9 = Table(
        "E3 / Figure 9: timestamp graphs of the counter-example",
        ["replica", "|E_i|", "loop edges"],
    )
    for r in graph.replicas:
        g = graphs[r]
        fig9.add_row(
            r,
            len(g.edges),
            " ".join(sorted(_edge_str(e) for e in g.loop_edges)) or "-",
        )
    return claims, fig9


def e3_counterexample_run(writes: int = 300, seed: int = 11):
    """Protocol run on the counter-example placement: the algorithm stays
    causally consistent *without* replica i tracking the x-edge."""
    _, summary = protocol_run(
        fig6_counterexample_placements(), writes=writes, seed=seed
    )
    return summary


# ----------------------------------------------------------------------
# E4 -- Figure 8b: the modified minimal hoop is insufficient
# ----------------------------------------------------------------------
def e4_fig8b_modified_hoop() -> Table:
    graph = ShareGraph(fig8b_placements())
    graphs = all_timestamp_graphs(graph)
    table = Table(
        "E4 / Figure 8b: modified minimal hoop (Def. 20) vs Theorem 8",
        ["criterion", "requires i to track e_kj?"],
    )
    hoop = belongs_to_minimal_x_hoop(graph, "i", "x", modified=True)
    table.add_row("modified minimal x-hoop (Def. 20)", hoop)
    table.add_row("timestamp graph G_i (Def. 5 / Thm. 8)", ("k", "j") in graphs["i"].edges)
    return table


# ----------------------------------------------------------------------
# E5 -- Section 4 closed forms: tree / cycle / clique tightness
# ----------------------------------------------------------------------
def e5_closed_form_bounds() -> Table:
    table = Table(
        "E5 / Section 4: closed-form lower bounds vs algorithm counters",
        ["share graph", "replica", "lower bound", "algorithm |E_i|", "tight"],
    )
    line = ShareGraph(line_placements(6))
    for r in (1, 3):
        lb = tree_lower_bound_counters(line, r)
        alg = algorithm_counters(line, r)
        table.add_row(f"path-6 (tree)", r, lb, alg, lb == alg)
    tree = ShareGraph(tree_placements(9, branching=3, seed=2))
    for r in (1, 5):
        lb = tree_lower_bound_counters(tree, r)
        alg = algorithm_counters(tree, r)
        table.add_row("random tree-9", r, lb, alg, lb == alg)
    for n in (4, 6, 8):
        ring = ShareGraph(ring_placements(n))
        lb = cycle_lower_bound_counters(ring)
        alg = algorithm_counters(ring, 1)
        table.add_row(f"cycle-{n}", 1, lb, alg, lb == alg)
    clique = ShareGraph(clique_placements(5))
    graphs = all_timestamp_graphs(clique)
    comp, raw = compressed_length(clique, 1, graphs[1].edges)
    table.add_row("clique-5 (full repl.)", 1, f"R={len(clique)} (VC)", f"{comp} (compressed)", comp == len(clique))
    return table


# ----------------------------------------------------------------------
# E6 -- Theorem 15: conflict-graph bound on tiny share graphs
# ----------------------------------------------------------------------
def e6_conflict_graph_bounds(m: int = 2) -> Table:
    table = Table(
        f"E6 / Theorem 15: conflict-graph bounds (m={m})",
        ["share graph", "replica", "vectors", "clique LB", "greedy UB", "predicted"],
    )
    cases = [
        ("path-3", line_placements(3), 2, 2 * 2),  # middle replica, N_i=2
        ("path-3", line_placements(3), 1, 2 * 1),  # leaf replica, N_i=1
        ("triangle", cycle_placements(3), 1, 2 * 3),
    ]
    for name, placements, replica, exponent in cases:
        graph = ShareGraph(placements)
        g = conflict_graph(graph, replica, m)
        lb = clique_number_bound(g)
        ub = greedy_chromatic_upper_bound(g)
        table.add_row(
            name, replica, len(g), lb, ub, m**exponent
        )
    return table


# ----------------------------------------------------------------------
# E7 -- the metadata/flexibility trade-off sweep
# ----------------------------------------------------------------------
def e7_metadata_tradeoff(sizes: Optional[List[int]] = None) -> Table:
    sizes = sizes or [4, 6, 8, 10]
    families: Dict[str, Callable[[int], Mapping]] = {
        "line": line_placements,
        "cycle": cycle_placements,
        "star": star_placements,
        "clique": clique_placements,
        "grid": lambda n: grid_placements(2, n // 2),
        "random-f2": lambda n: random_placements(n, n, 2, seed=3),
        "random-f3": lambda n: random_placements(n, n, 3, seed=3),
    }
    return metadata_comparison(
        "E7: metadata size, ours vs Full-Track vs vector clocks", families, sizes
    )


def e7_hoop_comparison() -> Table:
    """Edge counts: timestamp graph vs Helary-Milani hoop condition."""
    table = Table(
        "E7b: tracked edges, Definition 5 vs minimal-hoop condition",
        ["placement", "replica", "ours |E_i|", "hoop edges", "hoop-modified"],
    )
    for name, placements in [
        ("fig5", fig5_placements()),
        ("fig6", fig6_counterexample_placements()),
        ("fig8b", fig8b_placements()),
    ]:
        graph = ShareGraph(placements)
        graphs = all_timestamp_graphs(graph)
        for r in graph.replicas:
            table.add_row(
                name,
                r,
                len(graphs[r].edges),
                len(hoop_tracked_edges(graph, r)),
                len(hoop_tracked_edges(graph, r, modified=True)),
            )
    return table


# ----------------------------------------------------------------------
# E8 -- Appendix D compression
# ----------------------------------------------------------------------
def e8_compression(sizes: Optional[List[int]] = None) -> Table:
    sizes = sizes or [4, 6, 8]
    table = Table(
        "E8 / Appendix D: compressed vs raw timestamp length",
        ["placement", "replica", "raw |E_i|", "compressed I(E_i)", "ratio"],
    )
    cases: List[Tuple[str, Mapping]] = [
        ("fig5", fig5_placements()),
        ("appendix-D example", _appendix_d_example()),
    ]
    for n in sizes:
        cases.append((f"clique-{n}", clique_placements(n)))
        cases.append((f"random-{n}", random_placements(n, 2 * n, 3, seed=5)))
    for name, placements in cases:
        graph = ShareGraph(placements)
        graphs = all_timestamp_graphs(graph)
        for r in graph.replicas[:1]:
            comp, raw = compressed_length(graph, r, graphs[r].edges)
            table.add_row(name, r, raw, comp, comp / raw if raw else 1.0)
    return table


def _appendix_d_example() -> Mapping:
    """The Appendix D compression example: X_j1={x}, X_j2={y}, X_j3={z},
    X_j4={x,y,z} around a hub ``j``."""
    return {
        "j": {"x", "y", "z"},
        1: {"x"},
        2: {"y"},
        3: {"z"},
        4: {"x", "y", "z"},
    }


def e8b_wire_bytes(writes: int = 300) -> Table:
    """Metadata bytes on the wire: ours vs Full-Track, raw vs compressed.

    Section 4 states bounds in bits; this measures the varint-encoded
    size of every timestamp actually sent during a run, plus what the
    Appendix D codec would have sent for the same timestamps.
    """
    from repro.optimizations.compression import CompressedCodec
    from repro.wire.varint import uvarint_size

    table = Table(
        "E8b: metadata bytes per run (300 writes)",
        ["placement", "policy", "raw bytes", "compressed bytes", "saving"],
    )
    cases = [
        ("fig5", fig5_placements()),
        ("clique-6", clique_placements(6)),
        ("random-8-f3", random_placements(8, 12, 3, seed=9)),
    ]
    for name, placements in cases:
        for policy_name, factory in (("ours", None), ("full-track", full_track_policy)):
            system = DSMSystem(placements, policy_factory=factory, seed=51)
            codecs = {
                rid: CompressedCodec(system.graph, rid, replica.policy.edges)
                for rid, replica in system.replicas.items()
            }
            compressed_bytes = 0

            # Recompute compressed sizes for every sent timestamp by
            # intercepting sends through a wrapper hook on the replicas.
            original_send = system.network.send
            totals = {"compressed": 0}

            def counting_send(src, dst, message, metadata_counters=0, wire_bytes=0):
                ts = getattr(message, "timestamp", None)
                if ts is not None:
                    comp = codecs[src].compress(ts)
                    size = 0
                    for kind, counts in comp.blocks.values():
                        size += 1  # block kind flag
                        size += sum(uvarint_size(c) for c in counts)
                    totals["compressed"] += size
                return original_send(
                    src, dst, message,
                    metadata_counters=metadata_counters,
                    wire_bytes=wire_bytes,
                )

            system.network.send = counting_send  # type: ignore[method-assign]
            stream = uniform_writes(system.graph, writes, seed=52)
            run_workload(system, stream)
            assert system.check().ok
            raw = system.metrics().metadata_bytes_sent
            compressed_bytes = totals["compressed"]
            saving = 1 - compressed_bytes / raw if raw else 0.0
            table.add_row(name, policy_name, raw, compressed_bytes, saving)
    return table


# ----------------------------------------------------------------------
# E9 -- dummy registers sweep
# ----------------------------------------------------------------------
def e9_dummy_registers(writes: int = 200, seed: int = 13) -> Table:
    table = Table(
        "E9 / Appendix D: dummy registers trade-off (ring-6)",
        [
            "variant",
            "mean |E_i|",
            "messages",
            "false deps",
            "mean apply delay",
            "consistent",
        ],
    )
    base_placements = ring_placements(6)
    base = ShareGraph(base_placements)

    def run(graph: ShareGraph, dummy_map, label: str) -> None:
        system = DSMSystem(graph, dummy_registers=dummy_map, seed=seed)
        writable = {r: base.registers_at(r) for r in base.replicas}
        stream = uniform_writes(graph, writes, seed=seed + 1, writable=writable)
        run_workload(system, stream)
        metrics = system.metrics()
        fd = false_dependencies(system.history, base)
        counters = list(metrics.timestamp_counters.values())
        table.add_row(
            label,
            sum(counters) / len(counters),
            metrics.messages_sent,
            fd["false"],
            metrics.mean_apply_delay,
            system.check().ok and system.quiescent(),
        )

    run(base, {}, "none (pure partial)")
    aug_n, dummies_n = neighbor_closure_dummies(base)
    run(aug_n, dummies_n, "neighbour closure")
    aug_f, dummies_f = emulate_full_replication(base)
    run(aug_f, dummies_f, "full-replication emulation")
    return table


# ----------------------------------------------------------------------
# E10 -- Figure 13: breaking the ring
# ----------------------------------------------------------------------
def e10_ring_breaking(n: int = 6, writes: int = 150, seed: int = 17) -> Table:
    """Figure 13: the ring, and the ring restricted to the path n..1.

    "mean x delay" is, in both rows, the virtual time from a write of the
    ring-closing register x to its arrival at x's other holder.
    """
    table = Table(
        f"E10 / Figure 13: breaking the {n}-ring with virtual registers",
        ["variant", "mean |E_i|", "max |E_i|", "x delivery hops", "mean x delay", "consistent"],
    )
    ring = ShareGraph(ring_placements(n))
    (x,) = ring.shared(n, 1)
    graphs = all_timestamp_graphs(ring)
    counters = [len(graphs[r].edges) for r in ring.replicas]

    system = DSMSystem(ring, seed=seed)
    stream = uniform_writes(ring, writes, seed=seed + 1)
    run_workload(system, stream)
    history = system.history
    direct = [
        e.time - history.updates[e.uid].issue_time
        for e in history.events
        if e.kind == "apply" and history.updates[e.uid].register == x
    ]
    table.add_row(
        "ring (direct)",
        sum(counters) / len(counters),
        max(counters),
        1,
        sum(direct) / len(direct),
        system.check().ok,
    )

    plan = restrict_to_tree(ring, [(r, r - 1) for r in range(n, 1, -1)])
    broken_graph = plan.share_graph()
    broken_graphs = all_timestamp_graphs(broken_graph)
    broken_counters = [len(broken_graphs[r].edges) for r in broken_graph.replicas]
    overlay = TreeOverlaySystem(plan, seed=seed)
    run_workload(
        overlay,
        uniform_writes(
            ring, writes, seed=seed + 2,
            writable={r: ring.registers_at(r) for r in ring.replicas},
        ),
    )
    deliveries = overlay.deliveries[x]
    table.add_row(
        "broken ring (virtual)",
        sum(broken_counters) / len(broken_counters),
        max(broken_counters),
        max(d.hops for d in deliveries),
        sum(d.latency for d in deliveries) / len(deliveries),
        overlay.check().ok,
    )
    return table


# ----------------------------------------------------------------------
# E11 -- bounded loops under (violated) loose synchrony
# ----------------------------------------------------------------------
def e11_bounded_loops(
    n: int = 8, writes: int = 250, seeds: Optional[List[int]] = None
) -> Table:
    seeds = seeds or [1, 2, 3]
    table = Table(
        f"E11 / Appendix D: bounded loops on ring-{n} (cap vs violations)",
        ["loop cap", "mean |E_i|", "delay model", "safety violations", "runs"],
    )
    ring = ShareGraph(ring_placements(n))
    caps: List[Optional[int]] = [None, n // 2 + 1, 3]
    for cap in caps:
        graphs = all_timestamp_graphs(ring, max_loop_len=cap)
        counters = [len(graphs[r].edges) for r in ring.replicas]
        for violate in (False, True):
            delay = LooseSynchronyDelay(
                path_length=(cap - 1) if cap else n, violate=violate
            )
            violations = 0
            for seed in seeds:
                factory = (
                    bounded_policy_factory(ring, cap)
                    if cap
                    else None
                )
                system = DSMSystem(
                    ring, policy_factory=factory, seed=seed, delay_model=delay
                )
                stream = uniform_writes(ring, writes, seed=seed + 100)
                run_workload(system, stream)
                violations += len(system.check().safety)
            table.add_row(
                cap if cap else "exact",
                sum(counters) / len(counters),
                "violated" if violate else "loose-sync",
                violations,
                len(seeds),
            )
    return table


def e11_adversarial_race(
    n: int = 8, bounded_cap: Optional[int] = 3, seed: int = 73
) -> DSMSystem:
    """The Theorem 8 / Appendix D adversarial schedule on an n-ring.

    Replica 2 writes the register it shares with replica 1 (the direct
    message to 1 is stalled), then starts a causal chain
    2 -> 3 -> ... -> n -> 1 around the ring.  The final update causally
    depends on the stalled one; whether replica 1 buffers it depends on
    the loop counters the policy kept.  Pass ``bounded_cap=None`` for the
    exact algorithm (which must survive the race).
    """
    from repro.network.delays import FixedDelay, PerEdgeDelay

    ring = ShareGraph(ring_placements(n))
    factory = (
        bounded_policy_factory(ring, bounded_cap)
        if bounded_cap is not None
        else None
    )
    delay = PerEdgeDelay({(2, 1): FixedDelay(1000.0)}, default=FixedDelay(1.0))
    system = DSMSystem(ring, policy_factory=factory, seed=seed, delay_model=delay)
    system.schedule_write(0.0, 2, "s1_2", "stalled")
    system.schedule_write(1.0, 2, "s2_3", "chain")
    hop_time = 5.0
    for replica in range(3, n + 1):
        register = f"s{replica}_{replica + 1}" if replica < n else f"s1_{n}"
        system.schedule_write(hop_time, replica, register, "chain")
        hop_time += 5.0
    system.run()
    return system


# ----------------------------------------------------------------------
# E12 -- client-server architecture
# ----------------------------------------------------------------------
def e12_client_server(seed: int = 23) -> Table:
    placements = {1: {"x"}, 2: {"y"}, 3: {"x", "z"}, 4: {"y", "z"}, 5: {"w", "z"}}
    assignments = {"cA": {1, 2}, "cB": {3, 4}, "cC": {4, 5}}
    graph = ShareGraph(placements)
    assignment = ClientAssignment(graph, assignments)
    plain = all_timestamp_graphs(graph)
    augmented = all_augmented_timestamp_graphs(graph, assignment)
    table = Table(
        "E12 / Section 6: augmented vs plain timestamp graphs",
        ["replica", "plain |E_i|", "augmented |E^_i|", "extra edges"],
    )
    for r in graph.replicas:
        extra = augmented[r].edges - plain[r].edges
        table.add_row(
            r,
            len(plain[r].edges),
            len(augmented[r].edges),
            " ".join(sorted(_edge_str(e) for e in extra)) or "-",
        )
    return table


def e12_client_server_run(ops_per_client: int = 20, seed: int = 29):
    """A randomized client-server run, checked for Definition 26."""
    placements = {1: {"x"}, 2: {"y"}, 3: {"x", "z"}, 4: {"y", "z"}}
    system = ClientServerSystem(
        placements,
        {"cA": {1, 2}, "cB": {3, 4}, "cC": {2, 3}},
        seed=seed,
        think_time=0.3,
    )
    import random as _random

    rng = _random.Random(seed)
    for cid, client in sorted(system.clients.items()):
        registers = sorted(
            system.assignment.registers_of(cid),
            key=lambda v: (str(type(v)), repr(v)),
        )
        for n in range(ops_per_client):
            register = rng.choice(registers)
            if rng.random() < 0.5:
                client.enqueue_read(register)
            else:
                client.enqueue_write(register, f"{cid}:{n}")
    system.run()
    return system


# ----------------------------------------------------------------------
# E13 -- causal multicast with overlapping groups
# ----------------------------------------------------------------------
def e13_multicast(messages: int = 120, seed: int = 31) -> Table:
    groups = {
        "news": {1, 2, 3},
        "eng": {2, 3, 4},
        "ops": {4, 5, 1},
        "all-hands": {1, 2, 3, 4, 5},
    }
    mc = CausalGroupMulticast(groups, seed=seed)
    import random as _random

    rng = _random.Random(seed)
    names = sorted(groups)
    clock = 0.0
    for m in range(messages):
        clock += rng.expovariate(1.0)
        group = rng.choice(names)
        sender = rng.choice(sorted(groups[group]))
        mc.schedule_multicast(clock, sender, group, f"m{m}")
    mc.run()
    result = mc.check()
    table = Table(
        "E13 / Section 2.2: overlapping-group causal multicast",
        ["process", "counters", "delivered", "causal delivery OK"],
    )
    for p in sorted(mc.system.replicas):
        table.add_row(
            p,
            mc.metadata_counters()[p],
            len(mc.deliveries_at(p)),
            result.ok,
        )
    return table


# ----------------------------------------------------------------------
# E14 -- protocol cost profile
# ----------------------------------------------------------------------
def e14_protocol_costs(writes: int = 300) -> Table:
    table = Table(
        "E14: protocol cost profile per topology",
        [
            "topology",
            "R",
            "msgs/update",
            "mean apply delay",
            "pending high water",
            "consistent",
        ],
    )
    cases = [
        ("line-8", line_placements(8)),
        ("ring-8", ring_placements(8)),
        ("star-8", star_placements(8)),
        ("clique-6", clique_placements(6)),
        ("grid-2x4", grid_placements(2, 4)),
        ("random-8-f3", random_placements(8, 12, 3, seed=7)),
    ]
    for name, placements in cases:
        system, summary = protocol_run(placements, writes=writes, seed=41)
        m = summary.metrics
        table.add_row(
            name,
            len(system.graph),
            m.messages_sent / max(m.issued, 1),
            m.mean_apply_delay,
            m.pending_high_water,
            summary.ok,
        )
    return table
