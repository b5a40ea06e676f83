"""Metrics registry: counters + latency histograms, with two exporters.

Counters are the process total of :mod:`repro.obs.span` — counts land on
the open span and finished roots fold them in — declared here, once,
with their HELP strings (:data:`COUNTERS`).  Each registry adds its own
latency histograms for the stages the paper's §7 experiments care about:
whole-query latency, per-chunk fragment decryption, retry backoff, and
modelled wire transfer.

Exporters:

* :meth:`MetricsRegistry.to_json` — a plain dict for tests, the bench
  harness, and ``repro stats --format json``;
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format 0.0.4 (``# HELP``/``# TYPE`` headers, ``_total`` counters,
  ``_bucket{le=...}``/``_sum``/``_count`` histograms), linted by
  ``tests/prometheus_lint.py`` in tier-1.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterable

from repro.obs.span import totals

#: Log-spaced upper bounds (seconds) covering 0.1ms .. 10s — wide enough
#: for both a warm memo hit and a naive ship-everything query.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Every counter, with its HELP string.  ``*_cache_hits`` /
#: ``*_cache_misses`` pairs cover one cache layer each (:data:`CACHE_LAYERS`).
COUNTERS: dict[str, str] = {
    "key_expansions": "AES-128 key schedules expanded.",
    "blocks_encrypted": "AES cipher blocks encrypted.",
    "blocks_decrypted": "AES cipher blocks decrypted.",
    "plan_cache_hits": "Queries whose translated plan was cached.",
    "plan_cache_misses": "Queries translated afresh.",
    "fragment_cache_hits": "Shipped fragments served from the server's cache.",
    "fragment_cache_misses": "Shipped fragments the server serialized afresh.",
    "block_cache_hits": "Shipped blocks whose plaintext the client held.",
    "block_cache_misses": "Shipped blocks the client decrypted.",
    "tree_cache_hits": "Shipped fragments whose tree the client held.",
    "tree_cache_misses": "Shipped fragments the client parsed afresh.",
    "interval_cache_hits": "Descendant joins that reused a tag's sorted lows.",
    "interval_cache_misses": "Descendant joins that sorted a tag's lows.",
    "epoch_invalidations": "Commits that moved the hosted epoch.",
    "opess_replans_carried": (
        "Write re-plans of an OPESS field that reused the old plan's draws."
    ),
    "opess_replans_full": (
        "Write re-plans of an OPESS field drawn from scratch."
    ),
    "faults_dropped": "Transfers the fault channel dropped.",
    "faults_corrupted": "Transfers the fault channel corrupted.",
    "faults_truncated": "Transfers the fault channel truncated.",
    "faults_duplicated": "Transfers the fault channel duplicated.",
    "faults_delayed": "Transfers the fault channel delayed.",
    "faults_rolled_back": (
        "Responses the fault channel replaced with a recorded stale one."
    ),
    "query_retries": "Query attempts after the first.",
    "integrity_failures": "Exchanges that failed integrity verification.",
    "freshness_failures": (
        "Integrity failures caught by the freshness envelope, not the MAC."
    ),
    "rollback_detected": (
        "Freshness failures whose authenticated epoch was older than ours."
    ),
    "queries_failed": "Queries that ran out of attempts or deadline.",
    "replica_demotions": "Replicas benched for serving stale state.",
    "replica_resyncs": "Benched replicas resynced and re-admitted.",
    "serving_connections": "Socket connections accepted.",
    "serving_requests": "Socket requests admitted.",
    "serving_updates": "Sealed update commands applied over the socket.",
    "backpressure_rejections": "Socket requests refused: in-flight queue full.",
    "serving_drains": "Graceful serving drains completed.",
    # Deliberately not ``*_cache_*``: cover traffic is not cache traffic.
    "leakage_real_fetches": "Block fetches the evaluated answers required.",
    "leakage_decoy_fetches": "Decoy block fetches the leakage policy added.",
    "leakage_pad_fetches": "Padding fetches that round a trace up to its bucket.",
    "leakage_real_bytes": "Ciphertext bytes read for real fetches.",
    "leakage_extra_bytes": "Ciphertext bytes read for decoy and padding fetches.",
    "leakage_traces_recorded": "Observed fetch traces recorded.",
}

#: Cache layers with a hits/misses counter pair, in declaration order.
CACHE_LAYERS: tuple[str, ...] = tuple(
    name[: -len("_cache_hits")]
    for name in COUNTERS
    if name.endswith("_cache_hits")
)

#: Histograms every registry carries, with their HELP strings.
HISTOGRAMS: dict[str, str] = {
    "query_seconds": "End-to-end secure query latency (client wall time).",
    "chunk_decrypt_seconds": "Decrypt+parse time of one batch of fragments that had no cached tree.",
    "retry_backoff_seconds": "Modelled backoff before each query retry.",
    "transfer_seconds": "Modelled wire time per channel transfer.",
    # Unitless lag (commits, not seconds) — recorded when a replica is
    # demoted for serving stale state, so the distribution shows how far
    # behind stale replicas were when caught.
    "replica_epoch_lag": "Commit-epoch lag of a replica demoted for staleness.",
    "serving_request_seconds": (
        "Socket request latency: admission to last response frame."
    ),
    # Unitless depth (requests, not seconds) — sampled at each admission
    # decision, so the distribution shows how full the bounded in-flight
    # queue runs under load.
    "serving_queue_depth": "In-flight queue depth sampled at admission.",
    # Unitless count (block fetches, not seconds) — one sample per
    # evaluated query and observer, so the distribution shows how well
    # padding flattens per-query fetch counts (real + decoy + pad).
    "leakage_fetch_blocks": "Block fetches one evaluated query drove.",
}

#: Per-histogram bucket overrides for unitless metrics whose values do
#: not fit the log-spaced seconds scale.
HISTOGRAM_BUCKETS: dict[str, tuple[float, ...]] = {
    "serving_queue_depth": (
        0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    ),
    "leakage_fetch_blocks": (
        0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    ),
}

#: Gauges every registry carries (instantaneous values, set not
#: incremented), with their HELP strings.
GAUGES: dict[str, str] = {
    "serving_connections": "Currently open serving-layer connections.",
    "serving_inflight": "Requests currently admitted and executing.",
}

#: Labeled counter families (name → HELP).  Kept deliberately small —
#: every label value mints a new time series, so only the per-tenant
#: request counter (bounded by the tenant registry) lives here.
LABELED_COUNTERS: dict[str, str] = {
    "serving_tenant_requests": "Requests handled, by serving tenant.",
}

_PROM_PREFIX = "repro_"


class Histogram:
    """Fixed-bucket latency histogram (cumulative, Prometheus-style).

    Not thread-safe by itself; :class:`MetricsRegistry` serializes
    :meth:`observe` under its own lock.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {
                repr(bound): cumulative
                for bound, cumulative in zip(self.buckets, self.bucket_counts)
            },
        }


class MetricsRegistry:
    """Counters (the process total) + histograms (per registry), exportable."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._histograms = self._fresh_histograms()
        self._gauges: dict[str, float] = {name: 0.0 for name in GAUGES}
        #: family → {canonical label string → count}.
        self._labeled: dict[str, dict[str, int]] = {
            name: {} for name in LABELED_COUNTERS
        }

    @staticmethod
    def _fresh_histograms() -> dict[str, Histogram]:
        return {
            name: Histogram(HISTOGRAM_BUCKETS.get(name, DEFAULT_BUCKETS))
            for name in HISTOGRAMS
        }

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one latency sample into histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            raise ValueError(
                f"unknown histogram {name!r}; known: "
                + ", ".join(sorted(self._histograms))
            )
        with self._lock:
            histogram.observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set an instantaneous gauge value."""
        if name not in GAUGES:
            raise ValueError(
                f"unknown gauge {name!r}; known: " + ", ".join(sorted(GAUGES))
            )
        with self._lock:
            self._gauges[name] = float(value)

    def inc_labeled(self, name: str, amount: int = 1, **labels: str) -> None:
        """Increment one series of a labeled counter family.

        The label set is canonicalized (sorted keys) so
        ``inc_labeled("x", a="1", b="2")`` and the reversed keyword order
        address the same series.
        """
        family = self._labeled.get(name)
        if family is None:
            raise ValueError(
                f"unknown labeled counter {name!r}; known: "
                + ", ".join(sorted(self._labeled))
            )
        key = ",".join(
            f'{label}="{value}"' for label, value in sorted(labels.items())
        )
        with self._lock:
            family[key] = family.get(key, 0) + amount

    # ------------------------------------------------------------------
    # Counters: reads of the process total
    # ------------------------------------------------------------------
    def counter_values(self) -> dict[str, int]:
        """Every declared counter's process total, zero included."""
        counted = totals()
        return {name: counted.get(name, 0) for name in COUNTERS}

    def counters_delta(self, before: dict[str, int]) -> dict[str, int]:
        """Per-counter difference against an earlier :meth:`counter_values`."""
        return {
            name: value - before.get(name, 0)
            for name, value in self.counter_values().items()
        }

    def hit_rate(self, cache: str) -> float:
        """Hit rate in [0, 1] for one cache layer (0.0 when untouched).

        Raises :class:`ValueError` naming the known layers for anything
        else.
        """
        if cache not in CACHE_LAYERS:
            raise ValueError(
                f"unknown cache layer {cache!r}; known layers: "
                + ", ".join(CACHE_LAYERS)
            )
        counted = totals()
        hits = counted.get(f"{cache}_cache_hits", 0)
        total = hits + counted.get(f"{cache}_cache_misses", 0)
        return hits / total if total else 0.0

    def snapshot(self) -> dict[str, Any]:
        """Counters + histograms (+ gauges/labeled series) as one dict."""
        with self._lock:
            histograms = {
                name: histogram.as_dict()
                for name, histogram in self._histograms.items()
            }
            gauges = dict(self._gauges)
            labeled = {
                name: dict(series) for name, series in self._labeled.items()
            }
        return {
            "counters": self.counter_values(),
            "histograms": histograms,
            "gauges": gauges,
            "labeled": labeled,
        }

    def reset_histograms(self) -> None:
        with self._lock:
            self._histograms = self._fresh_histograms()
            self._gauges = {name: 0.0 for name in GAUGES}
            self._labeled = {name: {} for name in LABELED_COUNTERS}

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        counter_values = self.counter_values()
        for name in sorted(counter_values):
            metric = f"{_PROM_PREFIX}{name}_total"
            lines.append(f"# HELP {metric} {COUNTERS[name]}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counter_values[name]}")
        with self._lock:
            for name in sorted(self._labeled):
                metric = f"{_PROM_PREFIX}{name}_total"
                lines.append(f"# HELP {metric} {LABELED_COUNTERS[name]}")
                lines.append(f"# TYPE {metric} counter")
                for key in sorted(self._labeled[name]):
                    sample = f"{metric}{{{key}}}" if key else metric
                    lines.append(f"{sample} {self._labeled[name][key]}")
            for name in sorted(self._gauges):
                metric = f"{_PROM_PREFIX}{name}"
                lines.append(f"# HELP {metric} {GAUGES[name]}")
                lines.append(f"# TYPE {metric} gauge")
                lines.append(
                    f"{metric} {_format_value(self._gauges[name])}"
                )
            for name in sorted(self._histograms):
                histogram = self._histograms[name]
                metric = f"{_PROM_PREFIX}{name}"
                lines.append(f"# HELP {metric} {HISTOGRAMS[name]}")
                lines.append(f"# TYPE {metric} histogram")
                for bound, cumulative in zip(
                    histogram.buckets, histogram.bucket_counts
                ):
                    lines.append(
                        f'{metric}_bucket{{le="{_format_le(bound)}"}} '
                        f"{cumulative}"
                    )
                lines.append(
                    f'{metric}_bucket{{le="+Inf"}} {histogram.count}'
                )
                lines.append(f"{metric}_sum {_format_value(histogram.sum)}")
                lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + "\n"


def _format_le(bound: float) -> str:
    text = f"{bound:.10f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)
