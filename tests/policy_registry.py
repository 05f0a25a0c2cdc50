"""Every timestamp policy in the tree, for the conformance suite.

Each entry names a policy tag, how to build it for a ``(graph, replica)``
pair, and the contract caveats a harness must respect (full replication
only, deliberately unsafe ablation).  ``tests/test_policy_conformance.py``
parametrizes over :func:`registered_policies`, so any policy added here
is held to the extended protocol surface documented on
:class:`repro.core.timestamp.TimestampPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.baselines.ablations import LaxSenderEdgePolicy, NoThirdPartyCheckPolicy
from repro.baselines.full_replication import VectorClockPolicy
from repro.core.share_graph import ShareGraph
from repro.core.timestamp import EdgeIndexedPolicy, TimestampPolicy
from repro.gst.policy import GstPolicy
from repro.types import ReplicaId

PolicyFactory = Callable[[ShareGraph, ReplicaId], TimestampPolicy]


@dataclass(frozen=True)
class PolicyEntry:
    """One registered policy and its contract caveats."""

    tag: str
    factory: PolicyFactory
    #: Vector-clock-style policies only make sense when every replica
    #: stores every register.
    requires_full_replication: bool = False
    #: Ablation policies violate causal delivery by design (Theorem 8
    #: necessity experiments); harnesses must not pick them.
    safe: bool = True
    #: Stabilizing policies defer visibility to the GST cut.
    stabilizing: bool = False


_REGISTRY: Dict[str, PolicyEntry] = {
    entry.tag: entry
    for entry in (
        PolicyEntry("edge", EdgeIndexedPolicy),
        PolicyEntry("gst", GstPolicy, stabilizing=True),
        PolicyEntry("vc", VectorClockPolicy, requires_full_replication=True),
        PolicyEntry("no-third-party", NoThirdPartyCheckPolicy, safe=False),
        PolicyEntry("lax-sender-edge", LaxSenderEdgePolicy, safe=False),
    )
}


def registered_policies() -> Tuple[PolicyEntry, ...]:
    """Every registered policy, in a deterministic order."""
    return tuple(_REGISTRY[tag] for tag in sorted(_REGISTRY))


def policy_entry(tag: str) -> PolicyEntry:
    """Look one policy up by tag (:class:`KeyError` when unknown)."""
    return _REGISTRY[tag]
