"""Structured observability for the secure query pipeline.

One record: the span tree.  A query's root :class:`~repro.obs.span.Span`
holds its stage timings and, in :attr:`~repro.obs.span.Span.counts`,
every counter its request moved (:func:`~repro.obs.span.count` lands on
the open span; spans fold into their parent, roots into the one process
total).  :class:`~repro.core.system.QueryTrace` reads its timings and
fault counts off that root.  One :class:`Observability` context per
system (or shared between systems) records finished roots into:

* :class:`~repro.obs.metrics.MetricsRegistry` — the process counter
  total plus latency histograms, with JSON and Prometheus-text
  exporters;
* :class:`~repro.obs.slowlog.SlowQueryLog` — bounded top-N slowest
  queries with span breakdowns and fault/retry annotations.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slowlog import SlowLogEntry, SlowQueryLog
from repro.obs.span import STAGES, Span, count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.system import QueryTrace

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "STAGES",
    "SlowLogEntry",
    "SlowQueryLog",
    "Span",
    "count",
]

#: Queries the slow log keeps.
SLOW_LOG_CAPACITY = 32

#: Span name → the histogram each such span of a finished root feeds.
_SPAN_HISTOGRAMS = {
    "transfer": "transfer_seconds",
    "decrypt_batch": "chunk_decrypt_seconds",
    "backoff": "retry_backoff_seconds",
}


class Observability:
    """Metrics + slow log, as one context object."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.slow_log = SlowQueryLog(capacity=SLOW_LOG_CAPACITY)

    @classmethod
    def coerce(cls, value: Any) -> "Observability":
        """``None`` → a fresh context; an instance passes through (so
        several systems can share one, or tests can inject a spy)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        raise TypeError(
            "observability must be an Observability instance or None, "
            f"not {type(value).__name__}"
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_query(self, trace: "QueryTrace") -> None:
        """Fold one finished query into histograms and the slow log."""
        observe = self.metrics.observe
        observe("query_seconds", trace.total_s)
        for span in trace.span.iter():
            histogram = _SPAN_HISTOGRAMS.get(span.name)
            if histogram is not None:
                observe(histogram, span.duration_s or 0.0)
        self.slow_log.record(trace)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_json(self) -> str:
        """Metrics snapshot plus slow-query log, as one JSON document."""
        payload = self.metrics.snapshot()
        payload["slow_queries"] = self.slow_log.as_dicts()
        return json.dumps(payload, indent=2, sort_keys=True)

    def export_prometheus(self) -> str:
        """Prometheus text exposition (counters + histograms only —
        the slow log is structural, not a metric)."""
        return self.metrics.to_prometheus()

    def reset(self) -> None:
        """Clear histograms and the slow log (counters are the process
        total and stay)."""
        self.metrics.reset_histograms()
        self.slow_log.clear()
