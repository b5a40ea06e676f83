"""Global performance-counter registry.

One process-wide :class:`PerfCounters` instance (:data:`counters`) is
incremented from the hot paths themselves — the AES key schedule, the CBC
decryptor, and every cache layer.  Nothing here imports the rest of the
package (the crypto layer imports *us*).

The serving layer dispatches requests onto a thread pool, so hot paths
run on many threads and every mutation goes through
:meth:`PerfCounters.add`, which serializes the read-modify-write under
one process-wide lock.  A bare ``counters.x += 1`` is *not* safe under
concurrency (the interpreter can preempt between the read and the write,
losing increments) and is kept only for single-threaded test
scaffolding; library code must use ``add``.  Reads (:meth:`snapshot`,
:meth:`delta_since`, :meth:`hit_rate`) take the same lock, so a snapshot
is a consistent cut even while other threads increment.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields


@dataclass
class PerfCounters:
    """Cumulative operation and cache-traffic counts.

    ``*_hits`` / ``*_misses`` pairs cover one cache layer each:

    * ``plan`` — the client's translated-query plan cache;
    * ``fragment`` — the server's serialized-fragment cache;
    * ``block`` — the client's decrypted-block cache;
    * ``tree`` — the client's fully decrypted fragment-tree cache
      (parse + block decryption + decoy stripping, one level above the
      block cache);
    * ``interval`` — the structural index's per-tag sorted low-bound
      arrays used by descendant joins.
    """

    key_expansions: int = 0
    blocks_encrypted: int = 0
    blocks_decrypted: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    fragment_cache_hits: int = 0
    fragment_cache_misses: int = 0
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    tree_cache_hits: int = 0
    tree_cache_misses: int = 0
    interval_cache_hits: int = 0
    interval_cache_misses: int = 0
    epoch_invalidations: int = 0
    # --- untrusted-server hardening (fault channel / integrity / retry) ---
    faults_dropped: int = 0
    faults_corrupted: int = 0
    faults_truncated: int = 0
    faults_duplicated: int = 0
    faults_delayed: int = 0
    #: Channel-level rollback attacks: a recorded stale-but-validly-MACed
    #: response substituted for the fresh one.
    faults_rolled_back: int = 0
    query_retries: int = 0
    integrity_failures: int = 0
    #: Subset of integrity_failures rejected by the freshness envelope
    #: (epoch/Merkle-root verification), not by the MAC itself.
    freshness_failures: int = 0
    #: Freshness failures whose authenticated epoch was *older* than the
    #: client's — a detected rollback to a pre-update snapshot.
    rollback_detected: int = 0
    queries_failed: int = 0
    # --- replication ---
    #: Replicas benched for serving stale state, and benched replicas
    #: resynced + re-admitted after a confirmed-fresh exchange.
    replica_demotions: int = 0
    replica_resyncs: int = 0
    # --- serving layer (socket front door) ---
    serving_connections: int = 0
    serving_requests: int = 0
    serving_updates: int = 0
    #: Requests refused because the bounded in-flight queue was full.
    backpressure_rejections: int = 0
    #: Graceful drains completed (in-flight finished, caches flushed,
    #: storage fsynced).
    serving_drains: int = 0
    # --- access-pattern leakage tier (trace recorder / countermeasures) ---
    # Deliberately *not* named ``*_cache_hits``: decoy and padding
    # fetches are cover traffic, not cache traffic, and must never
    # register as a cache layer or skew ``hit_rate()`` — the warm-path
    # hit rates keep describing real work with any LeakagePolicy on.
    #: Block fetches the evaluated answers actually required.
    leakage_real_fetches: int = 0
    #: Decoy block fetches injected by the policy's seeded stream.
    leakage_decoy_fetches: int = 0
    #: Padding fetches added to round trace lengths up to the bucket.
    leakage_pad_fetches: int = 0
    #: Ciphertext bytes read for real fetches (the overhead denominator).
    leakage_real_bytes: int = 0
    #: Ciphertext bytes read for decoy + padding fetches (the numerator).
    leakage_extra_bytes: int = 0
    #: Observed traces appended to the recorder.
    leakage_traces_recorded: int = 0

    def add(self, name: str, amount: int = 1) -> None:
        """Thread-safe increment (the only mutation hot paths may use)."""
        with _LOCK:
            setattr(self, name, getattr(self, name) + amount)

    def cache_layers(self) -> tuple[str, ...]:
        """Names of the cache layers with a hits/misses counter pair."""
        suffix = "_cache_hits"
        return tuple(
            f.name[: -len(suffix)]
            for f in fields(self)
            if f.name.endswith(suffix)
        )

    def snapshot(self) -> dict[str, int]:
        """Current values as a plain dict (safe to hold across resets)."""
        with _LOCK:
            return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta_since(self, before: dict[str, int]) -> dict[str, int]:
        """Per-counter difference against an earlier :meth:`snapshot`."""
        return {
            name: value - before.get(name, 0)
            for name, value in self.snapshot().items()
        }

    def reset(self) -> None:
        """Zero every counter (benchmark isolation)."""
        with _LOCK:
            for f in fields(self):
                setattr(self, f.name, 0)

    def hit_rate(self, cache: str) -> float:
        """Hit rate in [0, 1] for one cache layer (0.0 when untouched).

        Raises :class:`ValueError` naming the known layers for anything
        else — a typo'd layer name must not surface as an
        ``AttributeError`` from the registry's internals.
        """
        known = self.cache_layers()
        if cache not in known:
            raise ValueError(
                f"unknown cache layer {cache!r}; known layers: "
                + ", ".join(known)
            )
        with _LOCK:
            hits = getattr(self, f"{cache}_cache_hits")
            misses = getattr(self, f"{cache}_cache_misses")
        total = hits + misses
        return hits / total if total else 0.0


#: One process-wide reentrant-free lock guarding every counter mutation.
#: Module-level (not a dataclass field) so ``fields()`` iteration, reset
#: and snapshots keep seeing counter attributes only.
_LOCK = threading.Lock()

#: The process-wide registry every hot path increments.
counters = PerfCounters()
