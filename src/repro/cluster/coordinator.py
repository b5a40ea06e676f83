"""Scatter–gather query execution across a sharded, replicated cluster.

The coordinator is *client-side* machinery: it holds one
:class:`~repro.cluster.replication.ReplicaSet` per shard (each replica a
:class:`~repro.cluster.shard.ShardServer` behind its own sealed channel)
and runs every query as

1. **seal** — the client seals the translated query once; the identical
   request bytes go to every shard, so each shard's wire cache keys on
   the same blob a monolithic server would see;
2. **scatter** — a failover exchange against every shard's replica set
   (sequentially in-process; the modelled cost model treats the shards
   as concurrent, see :attr:`QueryTrace.cluster_makespan_s`);
3. **gather** — the partial responses are merged: fragments deduplicated
   by their ``root_id`` tag and sorted by it, which reproduces the
   monolithic fragment order *exactly* (the monolithic server sorts
   fragment roots by hosted node id), candidate counts taken from the
   first partial, block counts summed.

Because every shard runs the identical structural join and the owned
fragment roots partition the monolithic root list, the merged response —
and therefore the final answer — is byte-identical to the single-server
path at any (N, R), including under faults as long as one replica per
needed shard survives.

Updates need no routing: every shard server reads the one hosted
database, whose epoch and subtree marks tell each shard's caches what a
write changed (see :mod:`repro.cluster.shard`, "Freshness").
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from repro.core.encryptor import HostedDatabase
from repro.core.server import ServerResponse
from repro.netsim.channel import Channel
from repro.netsim.faults import FaultPolicy, FaultyChannel
from repro.perf import counters

from repro.cluster.placement import (
    ClusterConfig,
    PlacementMap,
    build_placement,
)
from repro.cluster.replication import Replica, ReplicaSet, ShardStats
from repro.cluster.shard import ShardServer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.client import Client
    from repro.core.leakage import LeakageContext
    from repro.core.system import QueryTrace, RetryPolicy
    from repro.crypto.keyring import ClientKeyring
    from repro.obs import Observability


def merge_partials(partials: list[ServerResponse]) -> ServerResponse:
    """Combine per-shard partial responses into the monolithic one.

    Fragment dedup keys on ``root_id``: ownership is a partition, so
    duplicates cannot normally occur; first-seen wins.  Candidate counts
    come from the first partial: every shard's wire cache is dropped on
    any commit and every shard re-runs the identical full join, so each
    partial's counts are the monolithic server's.

    Module-level (not a coordinator method) because the serving
    gateway gathers the same partials server-side, and the
    byte-identity guarantee rests on both paths merging through the
    exact same code.
    """
    by_root: dict[int, Any] = {}
    blocks = 0
    for partial in partials:
        blocks += partial.blocks_shipped
        for fragment in partial.fragments:
            key = (
                fragment.root_id
                if fragment.root_id is not None
                else -1 - len(by_root)  # untagged: keep, never collide
            )
            if key not in by_root:
                by_root[key] = fragment
    fragments = [by_root[key] for key in sorted(by_root)]
    return ServerResponse(
        fragments=fragments,
        blocks_shipped=blocks,
        candidate_counts=dict(partials[0].candidate_counts),
    )


class ClusterCoordinator:
    """Client-side fan-out over the shard replica sets."""

    def __init__(
        self,
        hosted: HostedDatabase,
        placement: PlacementMap,
        replica_sets: list[ReplicaSet],
        obs: "Observability",
    ) -> None:
        self.hosted = hosted
        self.placement = placement
        self.replica_sets = replica_sets
        self._obs = obs
        #: Access-pattern leakage context shared with every shard
        #: replica; ``None`` keeps the fixed scatter order.
        self.leakage: "LeakageContext | None" = None

    def attach_leakage(self, context: "LeakageContext") -> None:
        """Join the cluster to a system-wide leakage context.

        Every replica of shard N records under the ``shard<N>`` observer
        (the trace stream is per shard, not per replica — the attacker
        model is a compromised shard, and failover must not fork the
        decoy stream), and the coordinator's scatter order goes through
        :meth:`scatter_order`.
        """
        self.leakage = context
        for replica_set in self.replica_sets:
            for replica in replica_set.replicas:
                replica.server.attach_leakage(
                    context, observer=f"shard{replica_set.shard_id}"
                )

    def scatter_order(self) -> "list[ReplicaSet]":
        """Replica sets in the order this scatter should visit them.

        Fixed (shard-id) order without a shuffling policy; otherwise a
        seeded permutation per scatter.  The serving gateway fans out
        through this same helper, so both scatter paths draw from the
        one ``"scatter"`` stream.  Gather keys fragments by ``root_id``
        and sorts, so visit order never changes the merged answer.
        """
        if self.leakage is None:
            return list(self.replica_sets)
        return self.leakage.scatter_order(self.replica_sets)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        hosted: HostedDatabase,
        keyring: "ClientKeyring",
        config: ClusterConfig,
        retry_policy: "RetryPolicy",
        obs: "Observability",
        channel_template: Channel | None = None,
        faults: "FaultPolicy | Any | None" = None,
    ) -> "ClusterCoordinator":
        """Stand up N×R shard servers with their per-replica channels.

        ``channel_template`` supplies the bandwidth/latency every replica
        channel models (defaults match :class:`Channel`).  ``faults`` is
        either one :class:`FaultPolicy` applied to every replica channel
        or a callable ``(shard_id, replica_id) -> FaultPolicy | None``,
        which is how the chaos tests give a shard one lossy and one clean
        replica.
        """
        placement = build_placement(hosted, config)
        session_keys = keyring.session_keys()
        bandwidth = (
            channel_template.bandwidth_bits_per_second
            if channel_template is not None
            else Channel.bandwidth_bits_per_second
        )
        latency = (
            channel_template.latency_seconds
            if channel_template is not None
            else Channel.latency_seconds
        )
        replica_sets = []
        for shard_id in range(config.shards):
            replicas = []
            for replica_id in range(config.replicas):
                policy = faults(shard_id, replica_id) if callable(faults) else faults
                if policy is not None:
                    channel: Channel = FaultyChannel(
                        bandwidth_bits_per_second=bandwidth,
                        latency_seconds=latency,
                        policy=policy,
                    )
                else:
                    channel = Channel(
                        bandwidth_bits_per_second=bandwidth,
                        latency_seconds=latency,
                    )
                channel.obs = obs
                server = ShardServer(
                    hosted,
                    placement,
                    shard_id,
                    session_keys=session_keys,
                    obs=obs,
                )
                replicas.append(Replica(replica_id, server, channel))
            replica_sets.append(
                ReplicaSet(shard_id, replicas, retry_policy, obs)
            )
        return cls(hosted, placement, replica_sets, obs)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def scatter_gather(
        self,
        client: "Client",
        xpath: str,
        translated: Any,
        trace: "QueryTrace",
        rng: random.Random,
    ) -> ServerResponse:
        """Run one translated query across the cluster.

        Raises :class:`~repro.cluster.replication.ClusterDegradedError`
        (a typed :class:`QueryFailedError`) if any shard loses all its
        replicas — a partial answer is never returned.
        """
        tracer = self._obs.tracer
        counters.add("cluster_scatters")
        with tracer.span("seal"):
            request = client.seal_request(translated, cache_key=xpath)

        partials: list[ServerResponse] = []
        makespan = 0.0
        with tracer.span(
            "scatter", shards=len(self.replica_sets)
        ) as scatter_span:
            for replica_set in self.scatter_order():
                # check_freshness runs inside the failover loop so a
                # rollback is pinned on the replica that served it (and
                # that replica is demoted/resynced); open_response then
                # re-verifies authoritatively on the returned blob.
                sealed, elapsed = replica_set.exchange(
                    request, trace, rng, verify=client.check_freshness
                )
                with tracer.span("verify", shard=replica_set.shard_id):
                    partial = client.open_response(sealed)
                partials.append(partial)
                replica_set.stats.fragments_returned += len(partial.fragments)
                replica_set.stats.blocks_shipped += partial.blocks_shipped
                makespan = max(makespan, elapsed)
        scatter_s = scatter_span.finish()

        with tracer.span("gather") as gather_span:
            response = merge_partials(partials)
        gather_s = gather_span.finish()

        if self._obs.enabled:
            self._obs.metrics.observe("cluster_scatter_seconds", scatter_s)
            self._obs.metrics.observe("cluster_gather_seconds", gather_s)
        trace.cluster_shards = len(self.replica_sets)
        # Gather (a pure in-memory merge) happens after the slowest shard;
        # the modelled concurrent makespan is max(shard) + gather.
        trace.cluster_makespan_s += makespan + gather_s
        trace.candidate_counts = response.candidate_counts
        return response

    def naive_exchange(
        self, client: "Client", xpath: str, trace: "QueryTrace", rng: random.Random
    ) -> ServerResponse:
        """The naive ship-everything path against the cluster.

        The naive protocol has no sharded form — it ships the whole
        document by definition — so the exchange goes only to the shard
        owning the document root (its replica set still provides
        failover); the other shards are not contacted.
        """
        tracer = self._obs.tracer
        with tracer.span("seal"):
            request = client.seal_naive_request(xpath)
        root_set = next(
            (rs for rs in self.replica_sets if rs.owns_root()),
            self.replica_sets[0],
        )
        with tracer.span("scatter", naive=True, shards=1):
            sealed, elapsed = root_set.exchange(
                request, trace, rng, naive=True,
                verify=client.check_freshness,
            )
            with tracer.span("verify", shard=root_set.shard_id):
                response = client.open_response(sealed)
        root_set.stats.fragments_returned += len(response.fragments)
        root_set.stats.blocks_shipped += response.blocks_shipped
        trace.cluster_shards = len(self.replica_sets)
        trace.cluster_makespan_s += elapsed
        return response

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def flush_caches(self) -> None:
        for replica_set in self.replica_sets:
            replica_set.flush_caches()

    def shard_stats(self) -> list[ShardStats]:
        return [replica_set.stats for replica_set in self.replica_sets]

    @property
    def config(self) -> ClusterConfig:
        return self.placement.config
