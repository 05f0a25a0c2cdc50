"""The sharded DSM runtime: per-group timestamp policies, one overlay.

:class:`ShardedSystem` is the tree-overlay forwarder of
:class:`~repro.optimizations.tree_overlay.TreeOverlaySystem` run over
groups: a stock :class:`~repro.core.system.DSMSystem` whose timestamp
policies are built from the *per-group* edge sets of
:meth:`~repro.shard.plan.ShardPlan.replica_edges`, so every compiled
:class:`~repro.core.timestamp.EdgeIndex` plan stays group-sized no
matter how many groups the deployment has.  Send-side batching is on by
default, so full frames reach the policy's frame hooks.

Cross-group writes ride the tree overlay: a write of a cross register at
a subscriber contact updates the local per-group alias, then fans out
along the group tree on per-tree-edge carrier registers, with one
carrier write per distinct next hop serving every destination behind it
(the payload carries the remaining destination set).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.baselines import full_track_policy
from repro.core.system import DSMSystem
from repro.core.timestamp import EdgeIndexedPolicy
from repro.network.delays import DelayModel
from repro.optimizations.tree_overlay import TreeOverlaySystem
from repro.shard.plan import ShardPlan


class ShardedSystem(TreeOverlaySystem):
    """A sharded partially replicated DSM over one simulated network.

    Parameters
    ----------
    plan:
        The validated :class:`~repro.shard.plan.ShardPlan`.
    seed, delay_model:
        Simulation determinism and channel behaviour.
    batch_window, batch_max:
        Send-side coalescing per (sender, destination); 0 disables.
    """

    def __init__(
        self,
        plan: ShardPlan,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        batch_window: float = 0.25,
        batch_max: int = 64,
    ) -> None:
        edges = plan.replica_edges()
        super().__init__(
            plan,
            seed=seed,
            delay_model=delay_model,
            policy_factory=lambda graph, rid: EdgeIndexedPolicy(
                graph, rid, edges=edges[rid]
            ),
            batch_window=batch_window,
            batch_max=batch_max,
        )

    def metadata_bytes_per_op(self, ops: int) -> float:
        """Timestamp wire bytes shipped per logical client write."""
        return self.metrics().metadata_bytes_sent / max(1, ops)

    def __repr__(self) -> str:
        return (
            f"ShardedSystem({len(self.replicas)} replicas, "
            f"{len(self.plan.groups)} groups)"
        )


# ----------------------------------------------------------------------
# The monolithic comparison system
# ----------------------------------------------------------------------
def monolithic_system(plan: ShardPlan, seed: int = 0, **system_kwargs: Any):
    """The same logical register space with one monolithic share graph.

    Cross-group registers are shared *directly* between subscriber
    contacts, so the share graph is as tangled as the workload demands.
    Exact Definition 5 timestamp graphs are not computable at this scale
    (the loop enumeration is combinatorial, which is the whole point of
    sharding), so the monolithic system runs the Full-Track sufficient
    fallback -- every replica tracks the entire edge set, the
    configuration a monolithic deployment would actually ship.  That
    makes the bench's metadata comparison conservative in the
    monolith's favour on structure, generous on edge count; both
    numbers use the same ``timestamp_wire_bytes`` codec.
    """
    return DSMSystem(
        plan.logical_graph(),
        policy_factory=full_track_policy,
        seed=seed,
        **system_kwargs,
    )


def monolithic_metadata_bytes_per_op(
    plan: ShardPlan,
    writes: int,
    rate: float = 1.0,
    seed: int = 13,
    skew: float = 1.2,
) -> float:
    """Measured metadata bytes/op of the monolithic system.

    Runs the same Zipf workload shape over the logical graph and divides
    the accumulated timestamp wire bytes by the writes issued.  Bytes/op
    is dominated by the (constant) per-replica timestamp width times the
    recipient fanout, so a few hundred writes measure it stably.
    """
    from repro.workloads.operations import run_workload, zipf_writes

    system = monolithic_system(plan, seed=7)
    stream = zipf_writes(
        system.graph, writes, rate=rate, skew=skew, seed=seed
    )
    run_workload(system, stream)
    report = system.check()
    if not report.ok:
        raise AssertionError(
            f"monolithic comparison run violated causal consistency: {report}"
        )
    return system.metrics().metadata_bytes_sent / max(1, len(stream))
