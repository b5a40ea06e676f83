"""Structured observability for the secure query pipeline.

One :class:`Observability` context threads through the whole stack —
client, server, netsim channel, CLI — and bundles the
three concerns the paper's §7 "division of work" analysis needs:

* :class:`~repro.obs.span.Tracer` — nested timed spans per query;
  :class:`~repro.core.system.QueryTrace`'s scalar timing fields are a
  compatibility view *derived from* these spans, so the two always
  reconcile;
* :class:`~repro.obs.metrics.MetricsRegistry` — the global perf
  counters plus latency histograms, with JSON and Prometheus-text
  exporters;
* :class:`~repro.obs.slowlog.SlowQueryLog` — bounded top-N slowest
  queries with span breakdowns and fault/retry annotations.

``SecureXMLSystem.host(..., observability=False)`` disables the
recording half (tree-linking, histograms, slow log) while keeping the
measurements themselves — trace timing fields are populated either way.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    lint_prometheus,
    parse_prometheus,
)
from repro.obs.slowlog import SlowLogEntry, SlowQueryLog
from repro.obs.span import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.system import QueryTrace

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "SlowLogEntry",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "lint_prometheus",
    "parse_prometheus",
]


class Observability:
    """Tracer + metrics + slow log, as one context object."""

    def __init__(
        self,
        enabled: bool = True,
        slow_log_capacity: int = 32,
    ) -> None:
        self.enabled = enabled
        self.tracer = Tracer(enabled=enabled)
        self.metrics = MetricsRegistry()
        self.slow_log = SlowQueryLog(capacity=slow_log_capacity)

    @classmethod
    def coerce(cls, value: Any) -> "Observability":
        """Normalize a constructor knob into an :class:`Observability`.

        ``None``/``True`` → a fresh enabled instance; ``False`` → a
        disabled one; an existing instance passes through (so several
        systems can share one context, or tests can inject a spy).
        """
        if isinstance(value, cls):
            return value
        if value is None or value is True:
            return cls(enabled=True)
        if value is False:
            return cls(enabled=False)
        raise TypeError(
            "observability must be an Observability instance, bool, or "
            f"None, not {type(value).__name__}"
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_query(
        self,
        trace: "QueryTrace",
        span: Span | None = None,
        failed: bool = False,
    ) -> None:
        """Fold one finished query into histograms and the slow log."""
        if not self.enabled:
            return
        self.metrics.observe("query_seconds", trace.total_s)
        if trace.backoff_s:
            self.metrics.observe("retry_backoff_seconds", trace.backoff_s)
        self.slow_log.record(trace, span, failed=failed)

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
        """Clear histograms and the slow log (counters are global and
        stay — reset those via ``repro.perf.counters.reset()``)."""
        self.metrics.reset_histograms()
        self.slow_log.clear()
