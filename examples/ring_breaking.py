#!/usr/bin/env python
"""Breaking the ring (Appendix D, Figure 13).

A 6-replica ring forces every replica to keep 2n = 12 counters (the
Section 4 cycle lower bound).  Restricting communication to the path
6-5-4-3-2-1 re-routes the ring-closing register through the other five
hops -- piggybacked on virtual (carrier) registers -- so the share graph
becomes a path, collapsing timestamps to at most 4 counters, at the
cost of 5-hop latency for that register's updates.

Run with::

    python examples/ring_breaking.py
"""

from __future__ import annotations

from repro import ShareGraph, all_timestamp_graphs
from repro.harness import Table
from repro.network.delays import UniformDelay
from repro.optimizations import TreeOverlaySystem, restrict_to_tree
from repro.workloads import ring_placements, uniform_writes
from repro.workloads.operations import run_workload


def main() -> None:
    n = 6
    ring = ShareGraph(ring_placements(n))
    (x,) = ring.shared(n, 1)
    plan = restrict_to_tree(ring, [(r, r - 1) for r in range(n, 1, -1)])
    broken = plan.share_graph()

    table = Table(
        "timestamp counters per replica",
        ["replica", "ring (cycle bound 2n)", "broken ring (tree bound 2N_i)"],
    )
    before = all_timestamp_graphs(ring)
    after = all_timestamp_graphs(broken)
    for r in ring.replicas:
        table.add_row(r, len(before[r].edges), len(after[r].edges))
    print(table)

    # Drive the broken-ring system, including writes to the re-routed
    # register from both endpoints.
    system = TreeOverlaySystem(plan, seed=13, delay_model=UniformDelay(0.5, 3.0))
    stream = uniform_writes(
        ring, 200, seed=14,
        writable={r: ring.registers_at(r) for r in ring.replicas},
    )
    run_workload(system, stream)

    result = system.check()
    print(f"checker: {result}")
    result.raise_on_violation()
    failures = system.audit_stores()
    assert not failures, failures

    deliveries = system.deliveries.get(x, [])
    if deliveries:
        delay = sum(d.latency for d in deliveries) / len(deliveries)
        print(
            f"\nre-routed register {x!r}: "
            f"{len(deliveries)} deliveries over {deliveries[0].hops} hops, "
            f"mean end-to-end delay {delay:.2f} (vs ~1 hop direct)"
        )
    print(
        "\nTakeaway: restricting the communication topology trades "
        "propagation delay for timestamp size, exactly as Appendix D "
        "describes."
    )


if __name__ == "__main__":
    main()
