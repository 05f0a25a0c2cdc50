"""Asynchronous message-passing substrate.

Models the channel assumptions of Section 2: reliable point-to-point
channels with unbounded, *non-FIFO* delays.  Non-FIFO reordering comes from
the delay model (a later message may draw a smaller delay), never from
nondeterministic container iteration, so runs replay exactly from a seed.

The reliable-channel assumption can be *discharged* rather than assumed:
:class:`FaultyNetwork` drops and duplicates messages under a seeded
:class:`FaultPlan`, and :class:`ReliableNetwork` recovers exactly-once
delivery on top of it with sequence numbers, acks, and retransmission
(see :mod:`repro.network.faults`).
"""

from repro.network.delays import (
    DelayModel,
    ExponentialDelay,
    FixedDelay,
    LooseSynchronyDelay,
    PerEdgeDelay,
    UniformDelay,
)
from repro.network.faults import (
    AckSegment,
    ChannelFaults,
    DataSegment,
    FaultPlan,
    FaultyNetwork,
    ReliableNetwork,
)
from repro.network.partitions import (
    Partition,
    split_channels,
)
from repro.network.transport import ChannelStats, Network, NetworkStats

__all__ = [
    "DelayModel",
    "ExponentialDelay",
    "FixedDelay",
    "LooseSynchronyDelay",
    "PerEdgeDelay",
    "UniformDelay",
    "Partition",
    "split_channels",
    "AckSegment",
    "ChannelFaults",
    "DataSegment",
    "FaultPlan",
    "FaultyNetwork",
    "ReliableNetwork",
    "ChannelStats",
    "Network",
    "NetworkStats",
]
