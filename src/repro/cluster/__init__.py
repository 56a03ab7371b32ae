"""Distributed LogGrep (the paper's §8 future work): replicated block
placement, parallel ingest and scatter/gather queries with hedged reads,
per-shard deadlines and retry-across-replicas."""

from .coordinator import (
    ClusterError,
    ClusterLogGrep,
    ClusterQueryReport,
    ClusterStats,
)
from .node import NodeDownError, WorkerNode
from .placement import primary_node, replica_nodes
from .scatter import (
    LatencyTracker,
    ScatterConfig,
    ScatterGather,
    ShardError,
    ShardOutcome,
    ShardReport,
)

__all__ = [
    "ClusterLogGrep",
    "ClusterStats",
    "ClusterError",
    "ClusterQueryReport",
    "ShardReport",
    "WorkerNode",
    "NodeDownError",
    "replica_nodes",
    "primary_node",
    "ScatterConfig",
    "ScatterGather",
    "ShardOutcome",
    "ShardError",
    "LatencyTracker",
]
