"""Simulated GPU cluster: event loop, topology, flow network, collectives.

This package substitutes for the paper's physical testbed (NCCL on a
V100/NVLink/10-Gbps-Ethernet cluster).  See DESIGN.md §2 for the
substitution argument.
"""

from .cluster import GB, GBPS, Cluster, ClusterSpec, Device, FailureDomain, Host
from .collectives import all_reduce, all_to_all, reduce_scatter
from .faults import (
    FAULT_CATEGORIES,
    CorruptionWindow,
    DegradedWindow,
    DomainFailure,
    FaultIncident,
    FaultReport,
    FaultSchedule,
    FlapWindow,
    HostFailure,
    Partition,
    RetryPolicy,
    StragglerWindow,
)
from .network import Flow, FlowRecord, Network
from .primitives import (
    DEFAULT_BROADCAST_CHUNKS,
    CollectiveHandle,
    p2p,
    ring_allgather,
    ring_broadcast,
    ring_order,
    scatter,
)
from .solver import RateSolver, ScalarSolver

__all__ = [
    "GB",
    "GBPS",
    "Cluster",
    "ClusterSpec",
    "FailureDomain",
    "Device",
    "Host",
    "Flow",
    "FlowRecord",
    "Network",
    "RateSolver",
    "ScalarSolver",
    "DegradedWindow",
    "FlapWindow",
    "HostFailure",
    "DomainFailure",
    "Partition",
    "CorruptionWindow",
    "StragglerWindow",
    "FAULT_CATEGORIES",
    "FaultSchedule",
    "RetryPolicy",
    "FaultIncident",
    "FaultReport",
    "CollectiveHandle",
    "DEFAULT_BROADCAST_CHUNKS",
    "p2p",
    "ring_allgather",
    "ring_broadcast",
    "ring_order",
    "scatter",
    "all_to_all",
    "reduce_scatter",
    "all_reduce",
]
