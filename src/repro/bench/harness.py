"""Measurement harness for the §7 experiments.

Runs query classes against hosted systems, averages per-stage traces the
way the paper does ("all values reported are the average of 5 trials after
dropping the maximum and minimum"), computes the §7.4 saving ratios, and
formats rows as fixed-width tables that the benchmark suite prints —
these printed tables are the reproduction's counterparts of the paper's
figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.system import QueryTrace, SecureXMLSystem


@dataclass
class QueryClassResult:
    """Averaged stage costs for one (scheme, query-class) cell."""

    scheme: str
    query_class: str
    server_s: float
    decrypt_s: float
    postprocess_s: float
    transfer_bytes: float
    blocks: float
    query_count: int
    #: counter deltas accumulated while this cell ran (cache traffic,
    #: blocks decrypted, key expansions — see repro.obs.metrics.COUNTERS)
    perf: dict[str, int] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.server_s + self.decrypt_s + self.postprocess_s


def trimmed_mean(values: list[float]) -> float:
    """Mean after dropping one max and one min (the paper's §7.1 protocol).

    Falls back to the plain mean when there are fewer than 3 samples.
    """
    if not values:
        return 0.0
    if len(values) < 3:
        return sum(values) / len(values)
    trimmed = sorted(values)[1:-1]
    return sum(trimmed) / len(trimmed)


def average_traces(traces: list[QueryTrace]) -> dict[str, float]:
    """Trimmed-mean of every stage across traces."""
    return {
        "t_server": trimmed_mean([t.server_s for t in traces]),
        "t_decrypt": trimmed_mean([t.decrypt_client_s for t in traces]),
        "t_post": trimmed_mean([t.postprocess_client_s for t in traces]),
        "t_translate": trimmed_mean([t.translate_client_s for t in traces]),
        "t_transfer": trimmed_mean([t.transfer_s for t in traces]),
        "bytes": trimmed_mean([float(t.transfer_bytes) for t in traces]),
        "blocks": trimmed_mean([float(t.blocks_returned) for t in traces]),
        "t_total": trimmed_mean([t.total_s for t in traces]),
    }


def run_query_class(
    system: SecureXMLSystem,
    query_class: str,
    queries: list[str],
    naive: bool = False,
    cold: bool = False,
) -> QueryClassResult:
    """Run a query set and return the averaged stage breakdown.

    ``cold=True`` flushes the warm-path caches before every query so the
    result reflects independent executions (the paper's measurement
    protocol), not cross-query amortization.

    Counter deltas come from the system's observability context (its
    :class:`~repro.obs.MetricsRegistry`), so the harness sees exactly
    what the exporters export.
    """
    metrics = system.observability().metrics
    before = metrics.counter_values()
    traces: list[QueryTrace] = []
    for query in queries:
        if cold:
            system.flush_caches()
        if naive:
            system.naive_query(query)
        else:
            system.query(query)
        assert system.last_trace is not None
        traces.append(system.last_trace)
    averaged = average_traces(traces)
    return QueryClassResult(
        scheme=system.scheme.kind,
        query_class=query_class,
        server_s=averaged["t_server"],
        decrypt_s=averaged["t_decrypt"],
        postprocess_s=averaged["t_post"],
        transfer_bytes=averaged["bytes"],
        blocks=averaged["blocks"],
        query_count=len(queries),
        perf=metrics.counters_delta(before),
    )


def counter_report(delta: dict[str, int]) -> str:
    """Render nonzero perf-counter deltas as a fixed-width table.

    Companion to the stage tables: where those say how long a stage
    took, this says what the hot paths actually did (blocks decrypted,
    key expansions) and how the caches traded (hits vs. misses).
    """
    rows = [
        [name, value] for name, value in sorted(delta.items()) if value
    ]
    if not rows:
        return "perf counters: all zero"
    return format_table(["counter", "count"], rows, title="perf counters")


def saving_ratio(baseline_seconds: float, improved_seconds: float) -> float:
    """The §7.4 saving ratio S = (T_baseline − T_improved) / T_baseline."""
    if baseline_seconds <= 0:
        return 0.0
    return (baseline_seconds - improved_seconds) / baseline_seconds


def format_table(
    headers: list[str], rows: list[list[object]], title: str = ""
) -> str:
    """Fixed-width text table (the benchmark suite's figure output)."""
    rendered = [
        [
            f"{cell:.4f}" if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
