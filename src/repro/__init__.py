"""repro: partially replicated causally consistent shared memory.

A faithful, executable reproduction of Xiang & Vaidya, "Partially
Replicated Causally Consistent Shared Memory" (PODC 2018 brief
announcement; full version with lower bounds and the edge-indexed
algorithm).

Quickstart::

    from repro import DSMSystem

    system = DSMSystem({1: {"x"}, 2: {"x", "y"}, 3: {"y"}}, seed=7)
    system.client(1).write("x", 41)
    system.run()
    assert system.client(2).read("x") == 41
    assert system.check().ok

Package map
-----------
``repro.core``
    Share graphs, (i, e_jk)-loops, timestamp graphs, the edge-indexed
    timestamp algorithm, the sans-I/O protocol engine, the replica
    prototype, and the peer-to-peer DSM.
``repro.checker``
    Independent verification of replica-centric causal consistency.
``repro.lowerbound`` / ``repro.analysis``
    Conflict graphs and timestamp-size lower bounds (Sec. 4); structural
    analysis of share and timestamp graphs.
``repro.optimizations``
    Compression, dummy registers, tree overlays, bounded loops (App. D).
``repro.gst``
    The GST global-stabilization policy.
``repro.clientserver`` / ``repro.multicast``
    The client-server architecture (Sec. 6 / App. E); causal group
    multicast with overlapping groups (Sec. 2.2).
``repro.shard``
    Multicast groups joined by tree overlays (Sec. 5).
``repro.baselines``
    Vector clocks (full replication), Full-Track, predicate ablations.
``repro.sim`` / ``repro.network`` / ``repro.sync`` / ``repro.wire``
    Discrete-event kernel; channels, delays and faults; anti-entropy;
    wire formats and byte accounting.
``repro.tcp``
    A real-socket TCP cluster with a WAL, on one asyncio event loop per
    replica process.
``repro.adversary`` / ``repro.modelcheck``
    Theorem 8 schedule synthesis; exhaustive model checking.
``repro.workloads`` / ``repro.harness``
    Topology and operation generators; experiment sweeps, reporting and
    fault harnesses.
"""

from repro.checker import CheckResult, check_history
from repro.core.causality import History
from repro.core.loops import Loop, LoopFinder, is_i_ejk_loop
from repro.core.replica import Replica
from repro.core.share_graph import ShareGraph
from repro.core.system import Client, DSMSystem
from repro.core.timestamp import EdgeIndexedPolicy, Timestamp
from repro.core.timestamp_graph import (
    TimestampGraph,
    all_timestamp_graphs,
    timestamp_graph,
)
from repro.errors import (
    ConfigurationError,
    ConsistencyViolation,
    ProtocolError,
    ReproError,
    RetryExhaustedError,
    TransportError,
    UnknownDestinationError,
    UnknownRegisterError,
    UnknownReplicaError,
)
from repro.network.faults import (
    ChannelFaults,
    FaultPlan,
    FaultyNetwork,
    ReliableNetwork,
)
from repro.types import Edge, Update, UpdateId

__version__ = "1.0.0"

__all__ = [
    "CheckResult",
    "check_history",
    "History",
    "Loop",
    "LoopFinder",
    "is_i_ejk_loop",
    "Replica",
    "ShareGraph",
    "Client",
    "DSMSystem",
    "EdgeIndexedPolicy",
    "Timestamp",
    "TimestampGraph",
    "all_timestamp_graphs",
    "timestamp_graph",
    "ConfigurationError",
    "ConsistencyViolation",
    "ProtocolError",
    "ReproError",
    "RetryExhaustedError",
    "TransportError",
    "UnknownDestinationError",
    "UnknownRegisterError",
    "UnknownReplicaError",
    "ChannelFaults",
    "FaultPlan",
    "FaultyNetwork",
    "ReliableNetwork",
    "Edge",
    "Update",
    "UpdateId",
    "__version__",
]
