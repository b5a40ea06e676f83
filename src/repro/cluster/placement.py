"""Deterministic, seed-stable placement of interval groups onto shards.

The DSI index already partitions the hosted database into *interval
groups* — contiguous spans of the interval-sorted entry list (§5.1).  The
cluster layer reuses them as its sharding key: a :class:`PlacementMap`
splits the entry order into ``shards × groups_per_shard`` groups and
assigns each group to one owning shard through a seeded permutation, so
the whole placement is a pure function of (geometry, shards, replicas,
seed).  Ownership of *any* interval — including one drawn after hosting
by an insert — is resolved by bisecting its low bound against the group
cutpoints, which is what keeps placement stable across updates.

What a shard *owns* is the ciphertext: the block payloads and hosted
subtrees rooted in its groups.  The index metadata (DSI table, block
table, value index) is replicated to every shard — the structural join
needs the full laminar forest for correctness (a candidate's ancestor
can live in any group) and the paper already counts the index as
server-visible.  The security consequence is deliberate and tested: a
single compromised shard sees the same *index* the monolithic server
saw, but strictly fewer ciphertext payloads, so the frequency attack
against its view can only get weaker (``tests/test_cluster_security.py``).
"""

from __future__ import annotations

import os
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.encryptor import HostedDatabase

#: Environment knobs read by :meth:`ClusterConfig.from_env`.
SHARDS_ENV = "REPRO_SHARDS"
REPLICAS_ENV = "REPRO_REPLICAS"


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the cluster: shard count, replication factor, placement seed.

    ``shards=1`` with this config still runs the full coordinator path
    (one shard, R replicas) — useful as the cluster-mode baseline in
    benchmarks.  The *legacy* single-server path is selected one level
    up, by :meth:`coerce` returning ``None``.
    """

    shards: int = 1
    replicas: int = 1
    seed: int = 0
    #: target interval groups per shard; finer grouping spreads hot
    #: document regions across shards at the cost of a longer placement map
    groups_per_shard: int = 4

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.groups_per_shard < 1:
            raise ValueError(
                f"groups_per_shard must be >= 1, got {self.groups_per_shard}"
            )

    @classmethod
    def from_env(cls) -> "ClusterConfig | None":
        """Read ``REPRO_SHARDS`` / ``REPRO_REPLICAS`` (unset / <=1 shards → None)."""
        raw = os.environ.get(SHARDS_ENV, "").strip()
        if not raw:
            return None
        try:
            shards = int(raw)
        except ValueError as exc:
            raise ValueError(
                f"{SHARDS_ENV} must be an integer, got {raw!r}"
            ) from exc
        if shards <= 1:
            return None
        raw_replicas = os.environ.get(REPLICAS_ENV, "").strip()
        replicas = int(raw_replicas) if raw_replicas else 1
        return cls(shards=shards, replicas=max(1, replicas))

    @classmethod
    def coerce(cls, cluster: Any) -> "ClusterConfig | None":
        """Normalize the ``cluster=`` argument accepted by the system.

        ``None`` defers to the environment, ``False`` / an int ``<= 1``
        force the exact legacy single-server path (returned as ``None``),
        an int ``>= 2`` names the shard count, and a
        :class:`ClusterConfig` passes through — *including* one with
        ``shards=1``, which runs the coordinator over a single shard.
        """
        if cluster is None:
            return cls.from_env()
        if isinstance(cluster, ClusterConfig):
            return cluster
        if cluster is False:
            return None
        if cluster is True:
            return cls(shards=2)
        if isinstance(cluster, int):
            return None if cluster <= 1 else cls(shards=cluster)
        raise TypeError(
            "cluster must be None, a bool, an int shard count or a "
            f"ClusterConfig, not {type(cluster).__name__}"
        )


@dataclass(frozen=True)
class GroupPlacement:
    """One interval group's placement row (for the admin rendering)."""

    group_id: int
    #: low bound opening the group (``-inf`` for group 0)
    low: float
    #: low bound opening the *next* group (``+inf`` for the last)
    high: float
    shard: int
    entry_count: int
    block_ids: tuple[int, ...]


class PlacementMap:
    """group ↔ shard assignment plus the interval → group resolver."""

    def __init__(
        self,
        config: ClusterConfig,
        cutpoints: list[float],
        group_shards: tuple[int, ...],
        groups: tuple[GroupPlacement, ...],
    ) -> None:
        self.config = config
        self._cutpoints = cutpoints
        self._group_shards = group_shards
        self.groups = groups

    # ------------------------------------------------------------------
    # Resolution (pure geometry → ownership)
    # ------------------------------------------------------------------
    def group_of_low(self, low: float) -> int:
        """Interval group owning an interval that opens at ``low``."""
        return max(0, bisect_right(self._cutpoints, low) - 1)

    def shard_of_low(self, low: float) -> int:
        return self._group_shards[self.group_of_low(low)]

    def group_count(self) -> int:
        return len(self._group_shards)

    def groups_of_shard(self, shard: int) -> list[GroupPlacement]:
        return [group for group in self.groups if group.shard == shard]

    def signature(self) -> tuple:
        """Hashable form of the whole placement (determinism assertions)."""
        return (
            self.config.shards,
            self.config.replicas,
            self.config.seed,
            tuple(self._cutpoints),
            self._group_shards,
        )


def build_placement(
    hosted: "HostedDatabase",
    config: ClusterConfig,
) -> PlacementMap:
    """Place a hosted database's interval groups onto ``config.shards``.

    Groups are contiguous spans of the interval-sorted entry list (see
    :meth:`~repro.core.dsi.StructuralIndex.group_cutpoints`); the
    group → shard assignment walks a seeded permutation of the shards
    round-robin, so every shard owns ``~groups_per_shard`` groups and the
    assignment is reproducible from the seed alone.
    """
    index = hosted.structural_index
    cutpoints = index.group_cutpoints(
        config.shards * config.groups_per_shard
    )
    permutation = list(range(config.shards))
    random.Random(config.seed).shuffle(permutation)
    group_shards = tuple(
        permutation[g % config.shards] for g in range(len(cutpoints))
    )

    placement = PlacementMap(config, cutpoints, group_shards, ())
    # Count entries/blocks per group for the admin rendering.
    entry_counts = [0] * len(cutpoints)
    for entry in index.entries:
        entry_counts[placement.group_of_low(entry.interval.low)] += 1
    group_blocks: list[list[int]] = [[] for _ in cutpoints]
    for block_id, interval in index.block_table.items():
        group_blocks[placement.group_of_low(interval.low)].append(block_id)
    bounds = cutpoints[1:] + [float("inf")]
    placement.groups = tuple(
        GroupPlacement(
            group_id=g,
            low=cutpoints[g],
            high=bounds[g],
            shard=group_shards[g],
            entry_count=entry_counts[g],
            block_ids=tuple(sorted(group_blocks[g])),
        )
        for g in range(len(cutpoints))
    )
    return placement


def blocks_of_shard(
    hosted: "HostedDatabase", placement: PlacementMap, shard: int
) -> frozenset[int]:
    """Block ids whose representative interval falls in ``shard``'s groups."""
    return frozenset(
        block_id
        for block_id, interval in hosted.structural_index.block_table.items()
        if placement.shard_of_low(interval.low) == shard
    )
