#!/usr/bin/env python
"""Chaos: causal consistency over channels that drop, duplicate, and
replicas that crash.

The paper assumes reliable channels; this example takes that guarantee
away and shows the reliable-delivery layer earning it back: 30% loss +
20% duplication on every channel, a replica crash with a buffered update
in flight, and a checker that still certifies safety at every step and
liveness once the dust settles.

Run with::

    python examples/chaos_recovery.py
"""

from __future__ import annotations

from repro import DSMSystem, ShareGraph
from repro.harness.chaos import ChaosSpec, run_chaos_trial
from repro.harness.timeline import FaultAction
from repro.network import ChannelFaults, FaultPlan
from repro.network.delays import UniformDelay
from repro.workloads import fig5_placements


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A hand-built crash with a pending update in the blast radius.
    # ------------------------------------------------------------------
    print("Part 1: crash with a buffered update in flight")
    system = DSMSystem(
        {1: {"x"}, 2: {"x"}},
        seed=0,
        delay_model=UniformDelay(0.5, 5.0),
        fault_plan=FaultPlan(),  # trivial plan, but arms the ARQ layer
    )
    system.schedule_write(0.0, 1, "x", "first")
    system.schedule_write(0.01, 1, "x", "second")
    system.run(until=2.5)
    pending = system.replica(2).pending_count
    print(f"  t=2.5: replica 2 holds {pending} buffered (unapplied) update")
    assert pending == 1

    system.crash(2)  # volatile state gone: pending buffer discarded
    assert system.replica(2).pending_count == 0
    print("  replica 2 crashes -- its pending buffer is wiped")

    system.run(until=10.0)
    system.recover(2)  # durable snapshot restored, ARQ re-syncs the rest
    system.run()
    final = system.replica(2).read("x")
    retx = system.network.stats.retransmits
    print(f"  after recovery: replica 2 reads x -> {final!r} "
          f"({retx} retransmissions re-delivered the lost update)")
    assert final == "second"
    assert retx > 0
    result = system.check()
    print(f"  checker: {result}")
    result.raise_on_violation()

    # ------------------------------------------------------------------
    # 2. Lossy, duplicating channels on the paper's Figure 5 topology.
    # ------------------------------------------------------------------
    print("\nPart 2: 30% loss + 20% duplication on Figure 5")
    graph = ShareGraph(fig5_placements())
    plan = FaultPlan(
        seed=42,
        default=ChannelFaults(loss=0.3, duplication=0.2),
        horizon=300.0,  # the fairness assumption: faults eventually stop
    )
    lossy = DSMSystem(graph, seed=42, fault_plan=plan)
    lossy.schedule_write(1.0, 3, "x", "draft")
    lossy.schedule_write(2.0, 2, "y", "review")
    lossy.schedule_write(3.0, 4, "z", "sign-off")
    lossy.run()
    stats = lossy.network.stats
    print(f"  dropped {stats.messages_dropped}, injected "
          f"{stats.duplicates_injected} duplicates, suppressed "
          f"{stats.duplicates_suppressed}, retransmitted {stats.retransmits}")
    stats.assert_consistent()
    assert lossy.quiescent()
    result = lossy.check()
    print(f"  checker: {result}")
    result.raise_on_violation()

    # ------------------------------------------------------------------
    # 3. One trial of the full chaos campaign (CLI: python -m repro chaos).
    #    What breaks when is a timeline of FaultActions: two crashes are
    #    derived from the seed, a third kill/restart is written by hand.
    # ------------------------------------------------------------------
    print("\nPart 3: a chaos-campaign trial (loss + dup + a fault timeline)")
    spec = ChaosSpec(
        placements=fig5_placements(),
        loss=0.3,
        duplication=0.2,
        writes=20,
        crash_count=2,
        timeline=(
            FaultAction(10.0, "kill", 3),
            FaultAction(40.0, "restart", 3),
        ),
    )
    trial = run_chaos_trial(spec, seed=7)
    print(f"  {trial}")
    for action in trial.timeline:
        print(f"    {action}")
    assert trial.ok
    assert len(trial.crashes) == 3
    assert trial.messages_dropped > 0
    assert run_chaos_trial(spec, seed=7) == trial  # deterministic replay
    print("  replayed the trial: byte-identical result (seeded fault plan)")


if __name__ == "__main__":
    main()
