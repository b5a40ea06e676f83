"""Replica sets: R identical servers per shard, with failover.

Replication in this model is *identical state* — every replica of a
shard is a :class:`~repro.cluster.shard.ShardServer` over the same
hosted database with the same placement, reached over its own sealed
channel (optionally a :class:`~repro.netsim.faults.FaultyChannel`).  A
shard exchange walks the replicas round-robin: a retryable failure
(integrity violation or dropped transfer — exactly the monolithic
:data:`_RETRYABLE` set) triggers failover to the next replica with the
retry policy's modelled backoff, and only when every replica has been
tried ``max_attempts`` times does the shard surface
:class:`ClusterDegradedError`.  That error is a
:class:`~repro.core.system.QueryFailedError`, so the system-level
invariant is unchanged: a query returns the exact answer or a typed
error, never a silent wrong one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.integrity import (
    FreshnessError,
    IntegrityError,
    RollbackDetectedError,
)
from repro.core.system import QueryFailedError
from repro.netsim.channel import Channel
from repro.netsim.faults import TransferDropped
from repro.perf import counters
from repro.perf.counters import PerfCounters

from repro.cluster.shard import ShardServer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.system import QueryTrace, RetryPolicy
    from repro.obs import Observability

#: Failures that trigger failover to the next replica (the same set the
#: monolithic retry loop treats as transient).
_RETRYABLE = (IntegrityError, TransferDropped)


class ClusterDegradedError(QueryFailedError):
    """Every replica of a needed shard failed; the query cannot complete."""


@dataclass
class Replica:
    """One server instance of a shard, with its own channel."""

    replica_id: int
    server: ShardServer
    channel: Channel


@dataclass
class ShardStats:
    """Cumulative per-shard accounting the admin view renders."""

    shard_id: int
    exchanges: int = 0
    failovers: int = 0
    degraded: int = 0
    fragments_returned: int = 0
    blocks_shipped: int = 0
    server_s: float = 0.0
    transfer_s: float = 0.0
    #: Replicas demoted for serving rolled-back / stale state.
    demotions: int = 0
    #: Demoted replicas resynced and re-admitted to the rotation.
    resyncs: int = 0
    #: Largest commit-epoch lag ever observed from a stale replica.
    max_epoch_lag: int = 0

    def as_row(self) -> dict[str, object]:
        return {
            "shard": self.shard_id,
            "exchanges": self.exchanges,
            "failovers": self.failovers,
            "degraded": self.degraded,
            "demotions": self.demotions,
            "resyncs": self.resyncs,
            "epoch_lag": self.max_epoch_lag,
            "fragments": self.fragments_returned,
            "blocks": self.blocks_shipped,
            "t_server": self.server_s,
            "t_transfer": self.transfer_s,
        }


class ReplicaSet:
    """The R replicas of one shard plus the failover exchange loop."""

    def __init__(
        self,
        shard_id: int,
        replicas: list[Replica],
        policy: "RetryPolicy",
        obs: "Observability",
    ) -> None:
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        self.shard_id = shard_id
        self.replicas = replicas
        self.policy = policy
        self._obs = obs
        self.stats = ShardStats(shard_id)
        #: This shard's own counter registry (the global one still gets
        #: every increment; this one isolates the shard's share).
        self.perf = PerfCounters()
        #: replica_ids currently benched for serving stale state; they
        #: are skipped by the rotation until resynced and re-admitted.
        self._demoted: set[int] = set()

    def exchange(
        self,
        request_blob: bytes,
        trace: "QueryTrace",
        rng: random.Random,
        naive: bool = False,
        verify=None,
    ) -> tuple[bytes, float]:
        """One sealed request/response against this shard, with failover.

        Returns ``(sealed_response, shard_seconds)`` where the seconds
        are everything this shard cost — successful exchange time plus
        the modelled backoff of any failed attempts — which is what the
        coordinator's makespan model maxes over.  Raises
        :class:`ClusterDegradedError` once every replica has exhausted
        the policy's attempt budget.

        ``verify`` (the coordinator passes the client's
        ``check_freshness``) runs on the sealed response *inside* the
        loop, so a replica serving a rolled-back snapshot is identified
        while we still know which replica answered: it is demoted from
        the rotation, the exchange fails over to the freshest peer, and
        once any replica answers fresh the benched ones are resynced
        (caches flushed, recorded channel state cleared) and re-admitted.
        """
        budget = self.policy.max_attempts * len(self.replicas)
        spent = 0.0
        last_error: Exception | None = None
        last_fault: str | None = None
        for attempt in range(budget):
            replica = self._pick_replica(attempt)
            if attempt > 0:
                delay = self.policy.backoff_for(attempt - 1, rng)
                trace.backoff_s += delay
                spent += delay
                if self._obs.enabled:
                    # Modelled, not slept — mirror the monolithic retry
                    # loop so span totals reconcile with ``backoff_s``.
                    span = self._obs.tracer.begin(
                        "backoff", shard=self.shard_id, failover=attempt
                    )
                    span.set_duration(delay)
                    self._obs.metrics.observe("retry_backoff_seconds", delay)
            try:
                sealed, elapsed = self._attempt(
                    replica, request_blob, trace, naive
                )
                if verify is not None:
                    verify(sealed)
                if self._demoted:
                    self._readmit_demoted()
                return sealed, spent + elapsed
            except _RETRYABLE as exc:
                last_error = exc
                last_fault = getattr(
                    replica.channel, "last_fault_kind", None
                )
                counters.add("cluster_failovers")
                self.perf.add("cluster_failovers")
                self.stats.failovers += 1
                trace.cluster_failovers += 1
                if isinstance(exc, FreshnessError):
                    counters.add("freshness_failures")
                    trace.freshness_failures += 1
                    self._demote(replica, exc)
                if isinstance(exc, IntegrityError):
                    counters.add("integrity_failures")
                    trace.integrity_failures += 1
                else:
                    trace.drops += 1
        counters.add("cluster_degraded")
        self.perf.add("cluster_degraded")
        self.stats.degraded += 1
        detail = f"last error {type(last_error).__name__}"
        if last_fault is not None:
            detail += f", last fault {last_fault}"
        raise ClusterDegradedError(
            f"shard {self.shard_id}: all {len(self.replicas)} replicas "
            f"failed after {budget} attempts ({detail}): {last_error}"
        ) from last_error

    def _pick_replica(self, attempt: int) -> Replica:
        """Round-robin over non-demoted replicas.

        If *every* replica is benched the full rotation is used anyway —
        a demoted replica answering is strictly better than giving up
        without spending the attempt budget.
        """
        active = [
            replica for replica in self.replicas
            if replica.replica_id not in self._demoted
        ] or self.replicas
        return active[attempt % len(active)]

    def _demote(self, replica: Replica, exc: FreshnessError) -> None:
        """Bench a replica that served rolled-back / stale state."""
        if replica.replica_id not in self._demoted:
            self._demoted.add(replica.replica_id)
            counters.add("replica_demotions")
            self.perf.add("replica_demotions")
            self.stats.demotions += 1
        lag = exc.epoch_lag
        self.stats.max_epoch_lag = max(self.stats.max_epoch_lag, lag)
        if isinstance(exc, RollbackDetectedError):
            counters.add("rollback_detected")
            self.perf.add("rollback_detected")
        if self._obs.enabled:
            self._obs.metrics.observe("shard_epoch_lag", float(lag))

    def _readmit_demoted(self) -> None:
        """Resync benched replicas off the fresh state and re-admit them.

        Runs after a *confirmed-fresh* exchange: each benched replica's
        server caches are flushed (so nothing sealed at the old epoch
        survives) and its channel's recorded snapshot store is cleared
        (the modelled replica has caught up).  Only then does it rejoin
        the rotation.
        """
        for replica in self.replicas:
            if replica.replica_id not in self._demoted:
                continue
            replica.server.flush_caches()
            resync = getattr(replica.channel, "resync", None)
            if resync is not None:
                resync()
            counters.add("replica_resyncs")
            self.perf.add("replica_resyncs")
            self.stats.resyncs += 1
        self._demoted.clear()

    def _attempt(
        self,
        replica: Replica,
        request_blob: bytes,
        trace: "QueryTrace",
        naive: bool,
    ) -> tuple[bytes, float]:
        """One replica round trip: request over, evaluate, response back."""
        tracer = self._obs.tracer
        elapsed = 0.0
        with tracer.span(
            "shard", shard=self.shard_id, replica=replica.replica_id
        ):
            blob, seconds = replica.channel.transfer(
                "client->server", "query", request_blob
            )
            trace.transfer_s += seconds
            self.stats.transfer_s += seconds
            elapsed += seconds

            with tracer.span("server", shard=self.shard_id) as span:
                if naive:
                    sealed = replica.server.ship_all_wire(blob)
                else:
                    sealed = replica.server.answer_wire(blob)
            seconds = span.finish()
            trace.server_s += seconds
            self.stats.server_s += seconds
            elapsed += seconds

            sealed, seconds = replica.channel.transfer(
                "server->client", "answer", sealed
            )
            trace.transfer_s += seconds
            self.stats.transfer_s += seconds
            elapsed += seconds
        counters.add("shard_exchanges")
        self.perf.add("shard_exchanges")
        self.stats.exchanges += 1
        if self._obs.enabled:
            self._obs.metrics.observe("shard_exchange_seconds", elapsed)
        return sealed, elapsed

    # ------------------------------------------------------------------
    # Maintenance fan-out
    # ------------------------------------------------------------------
    def flush_caches(self) -> None:
        for replica in self.replicas:
            replica.server.flush_caches()

    def owns_root(self) -> bool:
        return self.replicas[0].server.owns_root()

    def total_bytes(self) -> int:
        return sum(replica.channel.total_bytes() for replica in self.replicas)
