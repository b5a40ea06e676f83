"""Server-side scatter–gather for cluster tenants behind the socket.

In-process, the :class:`~repro.cluster.coordinator.ClusterCoordinator`
is *client-side* machinery: the owner fans a sealed request out to every
shard, verifies each partial itself, and merges.  Behind the front door
the fan-out must happen where the shards live — inside the serving
process — so a remote client keeps the one-request/one-response wire
shape a monolithic tenant has.

The gateway keeps every security property the coordinator path has:

* the incoming request blob goes to the shards byte-unchanged, so each
  shard's wire cache keys on exactly the bytes a direct client would
  send;
* each partial is verified (envelope + freshness) through the tenant
  system's own client before merging, inside the replica set's failover
  loop, so stale replicas are demoted/resynced exactly as in-process;
* the merge is the same :func:`~repro.cluster.coordinator.merge_partials`
  code the coordinator runs, so the merged response — and therefore the
  remote client's final answer — is byte-identical to the in-process
  cluster answer;
* the merged response is re-sealed under the tenant's *current*
  ``(epoch, Merkle root)`` anchor, so the remote client's freshness
  check works unchanged.

The gateway holding the response session key is not a weakening of the
threat model: the gateway runs in the serving process of the *owner's*
deployment, which already hosts the tenant's full
:class:`~repro.core.system.SecureXMLSystem` (keys included).  The
untrusted parties remain the shard servers and the wire.
"""

from __future__ import annotations

import random
import threading

from repro.cluster.coordinator import ClusterCoordinator, merge_partials
from repro.core.epoch_cache import EpochCache
from repro.core.system import QueryTrace, SecureXMLSystem
from repro.netsim.message import encode_response
from repro.perf import counters


class ClusterGateway:
    """Wire-compatible ``answer_wire``/``ship_all_wire`` over a cluster.

    Presents the monolithic :class:`~repro.core.server.Server` wire
    surface for a tenant whose system runs the sharded coordinator, so
    the serving dispatch (and the remote client) never needs to know
    which execution engine backs a tenant.
    """

    def __init__(self, system: SecureXMLSystem) -> None:
        coordinator = system.coordinator
        if coordinator is None:
            raise ValueError("ClusterGateway requires a cluster system")
        self._system = system
        self._coordinator: ClusterCoordinator = coordinator
        self._hosted = system.hosted
        self._response_key = system.keyring.session_keys()[1]
        #: Deterministic backoff RNG for the replica failover loops
        #: (modelled delays only; seeded so socket runs are replayable).
        self._rng = random.Random(system.retry_policy.seed)
        # Sealed cache, mirroring Server's wire cache: the sealed blobs
        # embed the anchor, so any epoch move invalidates them wholesale.
        self._lock = threading.RLock()
        self._caches: list[EpochCache] = []
        self._wire_cache = EpochCache(
            lambda: self._hosted.epoch, self._caches, bounded=True
        )

    # ------------------------------------------------------------------
    # Server wire surface
    # ------------------------------------------------------------------
    def answer_wire(self, request_blob: bytes) -> bytes:
        """Scatter the sealed request, gather, merge, re-seal."""
        with self._lock:
            cached = self._wire_cache.live().get(request_blob)
        if cached is not None:
            return cached
        merged = self._scatter(request_blob)
        blob, epoch = self._hosted.seal(
            self._response_key, encode_response(merged)
        )
        with self._lock:
            self._wire_cache.store(request_blob, blob, epoch)
        return blob

    def ship_all_wire(self, request_blob: bytes) -> bytes:
        """Naive path: the root-owning shard ships everything.

        The shard's sealed blob passes through unchanged — it is already
        sealed under the tenant's global anchor, so re-sealing would
        only re-verify what the remote client verifies anyway.
        """
        coordinator = self._coordinator
        root_set = next(
            (rs for rs in coordinator.replica_sets if rs.owns_root()),
            coordinator.replica_sets[0],
        )
        trace = QueryTrace(query="<serving-naive>")
        sealed, _ = root_set.exchange(
            request_blob,
            trace,
            self._rng,
            naive=True,
            verify=self._system.client.check_freshness,
        )
        return sealed

    def flush_caches(self) -> None:
        with self._lock:
            for cache in self._caches:
                cache.clear()
        self._coordinator.flush_caches()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _scatter(self, request_blob: bytes):
        """Failover exchange against every shard; merged response."""
        coordinator = self._coordinator
        client = self._system.client
        counters.add("cluster_scatters")
        trace = QueryTrace(query="<serving>")
        partials = []
        for replica_set in coordinator.scatter_order():
            sealed, _ = replica_set.exchange(
                request_blob,
                trace,
                self._rng,
                verify=client.check_freshness,
            )
            partial = client.open_response(sealed)
            partials.append(partial)
            replica_set.stats.fragments_returned += len(partial.fragments)
            replica_set.stats.blocks_shipped += partial.blocks_shipped
        return merge_partials(partials)
