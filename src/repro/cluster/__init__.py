"""Sharded, replicated server cluster with scatter–gather execution.

The cluster layer partitions a hosted database across N server instances
by DSI interval group (deterministic, seed-stable placement; replication
factor R) and runs every query as a scatter–gather over the existing
sealed netsim channels, reassembling answers byte-identical to the
single-server path.  See ``docs/CLUSTER.md`` for the design.
"""

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.placement import (
    ClusterConfig,
    GroupPlacement,
    PlacementMap,
    build_placement,
)
from repro.cluster.replication import (
    ClusterDegradedError,
    Replica,
    ReplicaSet,
    ShardStats,
)
from repro.cluster.shard import ShardServer, ShardView

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterDegradedError",
    "GroupPlacement",
    "PlacementMap",
    "Replica",
    "ReplicaSet",
    "ShardServer",
    "ShardStats",
    "ShardView",
    "build_placement",
]
