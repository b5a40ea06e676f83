"""Operator views of a running cluster: placement map and shard stats.

Pure rendering — everything here reads coordinator state and formats
text for ``repro cluster`` / ``repro stats``; nothing mutates.
"""

from __future__ import annotations

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.placement import PlacementMap


def _bound(value: float) -> str:
    if value == float("-inf"):
        return "-inf"
    if value == float("inf"):
        return "+inf"
    return f"{value:g}"


def render_placement(placement: PlacementMap) -> str:
    """The group → shard table plus a per-shard ownership summary."""
    config = placement.config
    lines = [
        f"cluster: {config.shards} shard(s) x {config.replicas} replica(s), "
        f"seed={config.seed}, {placement.group_count()} interval group(s)",
        "",
        f"{'group':>5}  {'interval':<24} {'shard':>5} {'entries':>8} "
        f"{'blocks':>7}",
    ]
    for group in placement.groups:
        span = f"[{_bound(group.low)}, {_bound(group.high)})"
        lines.append(
            f"{group.group_id:>5}  {span:<24} {group.shard:>5} "
            f"{group.entry_count:>8} {len(group.block_ids):>7}"
        )
    lines.append("")
    for shard in range(config.shards):
        groups = placement.groups_of_shard(shard)
        entries = sum(group.entry_count for group in groups)
        blocks = sum(len(group.block_ids) for group in groups)
        lines.append(
            f"shard {shard}: {len(groups)} group(s), {entries} entries, "
            f"{blocks} blocks"
        )
    return "\n".join(lines)


def render_shard_stats(coordinator: ClusterCoordinator) -> str:
    """Per-shard exchange/failover/freshness/traffic table.

    ``demoted``/``resyncs`` count replicas benched for serving stale
    state and later resynced + re-admitted; ``lag`` is the largest
    commit-epoch lag a stale replica of that shard was caught at.
    """
    lines = [
        f"{'shard':>5} {'exchanges':>9} {'failovers':>9} {'degraded':>8} "
        f"{'demoted':>7} {'resyncs':>7} {'lag':>4} "
        f"{'fragments':>9} {'blocks':>7} {'server_s':>9} "
        f"{'wire_s':>9} {'bytes':>10}"
    ]
    for replica_set in coordinator.replica_sets:
        stats = replica_set.stats
        lines.append(
            f"{stats.shard_id:>5} {stats.exchanges:>9} {stats.failovers:>9} "
            f"{stats.degraded:>8} {stats.demotions:>7} {stats.resyncs:>7} "
            f"{stats.max_epoch_lag:>4} {stats.fragments_returned:>9} "
            f"{stats.blocks_shipped:>7} "
            f"{stats.server_s:>9.4f} {stats.transfer_s:>9.4f} "
            f"{replica_set.total_bytes():>10}"
        )
    return "\n".join(lines)
