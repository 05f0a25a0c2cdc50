"""Appendix D optimizations: reducing timestamp size in practice.

* :mod:`repro.optimizations.compression` -- exploit linear dependencies
  between edge counters (store only a row basis per neighbour).
* :mod:`repro.optimizations.dummy` -- dummy registers: trade extra
  metadata messages and false dependencies for smaller timestamps, up to
  full-replication emulation.
* :mod:`repro.optimizations.tree_overlay` -- restricted communication:
  re-route registers over carrier (virtual) registers along a spanning
  tree; Figure 13's ring breaking is a ring restricted to a path tree.
* :mod:`repro.optimizations.bounded` -- cap tracked loop lengths,
  sacrificing causality unless the network is loosely synchronous.
"""

from repro.optimizations.bounded import bounded_policy_factory
from repro.optimizations.compression import (
    CompressedCodec,
    CompressedTimestamp,
    compressed_length,
    independent_edge_count,
    register_classes,
)
from repro.optimizations.dummy import (
    add_dummy_registers,
    emulate_full_replication,
    false_dependencies,
    neighbor_closure_dummies,
)
from repro.optimizations.tree_overlay import (
    TreeOverlayPlan,
    TreeOverlaySystem,
    restrict_to_tree,
)

__all__ = [
    "bounded_policy_factory",
    "CompressedCodec",
    "CompressedTimestamp",
    "compressed_length",
    "independent_edge_count",
    "register_classes",
    "add_dummy_registers",
    "emulate_full_replication",
    "false_dependencies",
    "neighbor_closure_dummies",
    "TreeOverlayPlan",
    "TreeOverlaySystem",
    "restrict_to_tree",
]
