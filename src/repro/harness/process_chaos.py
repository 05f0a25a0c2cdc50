"""The merged-WAL audit: ground truth for every process-level harness.

The simulated chaos campaign (:mod:`repro.harness.chaos`) checks model
replicas inside one Python process; the process harnesses
(:mod:`repro.harness.soak`, ``bench/``) kill *operating system
processes* and then assert the exact same properties from what each
process durably logged, never from its in-memory claims:

* **safety and liveness** -- the merged per-process write-ahead logs
  replay through the real consistency checker
  (:func:`repro.checker.check_history`);
* **store convergence** -- :func:`repro.harness.chaos.store_divergence`
  runs against a view reconstructed from the WALs: every replica holds
  the value of a maximal write for each register and no value debt is
  left behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.causality import History
from repro.core.share_graph import ShareGraph
from repro.core.timestamp_graph import all_timestamp_graphs
from repro.errors import ProtocolError
from repro.harness.chaos import store_divergence
from repro.tcp.cluster import ProcessCluster
from repro.tcp.wal import WalEntry, read_wal
from repro.types import ReplicaId, UpdateId
from repro.wire.codec import canonical_edge_order, decode_update


# ----------------------------------------------------------------------
# Placements
# ----------------------------------------------------------------------
def ring_placements(n: int) -> Dict[str, List[str]]:
    """``n`` replicas in a sharing ring: replica ``ri`` stores the two
    registers it shares with its neighbours.  Every register lives on
    exactly two replicas -- genuinely partial replication with a
    connected share graph at any ``n >= 2``."""
    if n < 2:
        raise ProtocolError("a ring needs at least two replicas")
    if n == 2:
        return {"r0": ["x0"], "r1": ["x0"]}
    return {
        f"r{i}": sorted({f"x{(i - 1) % n}", f"x{i}"}) for i in range(n)
    }


# ----------------------------------------------------------------------
# WAL merge: the durable ground truth behind the audit
# ----------------------------------------------------------------------
@dataclass
class _ReplicaView:
    store: Dict[Any, Any]
    value_debt: Dict[Any, Any] = field(default_factory=dict)
    crashed: bool = False


@dataclass
class ClusterView:
    """Just enough of a system for :func:`store_divergence`."""

    history: History
    graph: ShareGraph
    replicas: Dict[ReplicaId, _ReplicaView]


def merge_wal_histories(
    graph: ShareGraph,
    entries_by_replica: Mapping[str, List[WalEntry]],
) -> Tuple[History, Dict[UpdateId, Any], ClusterView]:
    """Merge per-replica WALs into one :class:`History` plus final stores.

    Each replica's log is consumed strictly in its own order (that order
    *is* the replica's execution order, which fixes both its causal
    pasts and its final store); logs are interleaved greedily so that an
    apply is only recorded once its update's issue has been.  Leftover
    events after the fixpoint mean a replica durably applied an update
    its issuer never durably issued -- a genuine violation, reported
    loudly rather than skipped.
    """
    graphs = all_timestamp_graphs(graph)
    orders = {
        rid: canonical_edge_order(graphs[rid].edges) for rid in graph.replicas
    }
    by_name = {str(r): r for r in graph.replicas}
    registers = {str(x): x for x in graph.registers}

    history = History()
    values: Dict[UpdateId, Any] = {}
    stores: Dict[ReplicaId, Dict[Any, Any]] = {
        rid: {} for rid in graph.replicas
    }
    streams: Dict[ReplicaId, List[WalEntry]] = {}
    cursors: Dict[ReplicaId, int] = {}
    issue_seq: Dict[ReplicaId, int] = {}
    for name, entries in entries_by_replica.items():
        rid = by_name.get(name, name)
        streams[rid] = list(entries)
        cursors[rid] = 0
        issue_seq[rid] = 0

    progress = True
    while progress:
        progress = False
        for rid in sorted(streams, key=str):
            stream = streams[rid]
            while cursors[rid] < len(stream):
                entry = stream[cursors[rid]]
                if entry.kind == "issue":
                    issue_seq[rid] += 1
                    uid = UpdateId(rid, issue_seq[rid])
                    register = registers.get(entry.register, entry.register)
                    history.record_issue(rid, uid, register, entry.time)
                    values[uid] = entry.value
                    stores[rid][register] = entry.value
                else:
                    src = by_name.get(entry.src, entry.src)
                    update = decode_update(
                        entry.update_bytes, src, orders[src]
                    )
                    if update.uid not in history.updates:
                        break  # issue not merged yet; revisit next round
                    register = registers.get(
                        update.register, update.register
                    )
                    history.record_apply(rid, update.uid, entry.time)
                    if not update.metadata_only:
                        stores[rid][register] = update.value
                cursors[rid] += 1
                progress = True

    stuck = {
        str(rid): len(stream) - cursors[rid]
        for rid, stream in streams.items()
        if cursors[rid] < len(stream)
    }
    if stuck:
        raise ProtocolError(
            "WAL merge stuck -- applies of updates never durably issued: "
            f"{stuck}"
        )
    view = ClusterView(
        history=history,
        graph=graph,
        replicas={
            rid: _ReplicaView(store=stores.get(rid, {}))
            for rid in graph.replicas
        },
    )
    return history, values, view


def audit_cluster(
    cluster: ProcessCluster, graph: ShareGraph
) -> Tuple[List[str], int]:
    """Merged-WAL safety/liveness/store audit; returns (violations, events)."""
    entries = {
        replica: list(read_wal(cluster.wal_path(replica)))
        for replica in sorted(cluster.placements)
    }
    total = sum(len(e) for e in entries.values())
    violations: List[str] = []
    try:
        history, values, view = merge_wal_histories(graph, entries)
    except ProtocolError as exc:
        return [str(exc)], total
    from repro.checker import check_history

    result = check_history(history, graph, require_liveness=True)
    violations.extend(str(v) for v in result.violations)
    violations.extend(store_divergence(view, values))
    return violations, total
