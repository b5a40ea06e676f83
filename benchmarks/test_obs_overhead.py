"""E-obs — instrumentation overhead gate for the observability layer.

Every query gets a span tree, counts on its spans, latency histograms
and a slow-log candidacy, and there is no switch to turn that off.  So
this benchmark prices what the instrumentation adds to one warm query:

* the spans it opens and the counts it makes, counted exactly (a
  profile hook on one warm batch) and each priced at its unit cost,
  measured here in a tight loop — a span opened and finished under an
  open root, with one count folded into it; a count on an open span;
* ``record_query`` on the batch's real finished roots;

against the warm query's measured wall time.

The gate passes when either

* the instrumentation is within ``REPRO_OBS_OVERHEAD`` (default 5%) of
  the warm query's wall, or
* its absolute per-query cost is under a tiny floor (50µs).

Results are appended to ``BENCH_hotpath.json`` as an ``obs_overhead``
series (read-modify-write, so the other series survive) and a table
under ``benchmarks/results/``.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

import pytest

from repro.bench.harness import format_table, trimmed_mean
from repro.core.system import SecureXMLSystem
from repro.obs.span import Span, count, span
from repro.workloads.xmark import xmark_constraints
from repro.xpath.compiler import UnsupportedQuery

from conftest import BENCH_TRIALS, write_result

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_hotpath.json")
MASTER_KEY = b"hotpath-benchmark-master-key-001"

#: allowed instrumentation cost, as a share of the warm query's wall.
OVERHEAD_LIMIT = float(os.environ.get("REPRO_OBS_OVERHEAD", "0.05"))
#: below this per-query cost the ratio gate measures noise, not work.
ABSOLUTE_FLOOR_S = 50e-6


def _append_series(key: str, payload: object) -> None:
    """Read-modify-write ``BENCH_hotpath.json`` (other series survive)."""
    report: dict[str, object] = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    report[key] = payload
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def obs_queries(xmark_doc, xmark_queries):
    probe = SecureXMLSystem.host(
        xmark_doc, xmark_constraints(), scheme="opt", master_key=MASTER_KEY
    )
    queries = []
    for query_class in ("Qs", "Qm"):
        for query in xmark_queries[query_class]:
            try:
                probe.client.translate(query)
            except UnsupportedQuery:
                continue
            if query not in queries:
                queries.append(query)
    assert queries
    return queries


def _timed_warm(system: SecureXMLSystem, queries: list[str]) -> float:
    """Trimmed-mean wall of one warm batch."""
    system.execute_many(queries)  # warm every cache layer
    gc.collect()
    gc.disable()  # answers are cyclic node graphs: no mid-sample collections
    try:
        samples = []
        for _ in range(max(BENCH_TRIALS, 3)):
            started = time.perf_counter()
            system.execute_many(queries)
            samples.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return trimmed_mean(samples)


def _instrumentation_calls(
    system: SecureXMLSystem, queries: list[str]
) -> tuple[int, int]:
    """(spans opened, counts made) by one warm batch, counted exactly."""
    watched = {Span.__init__.__code__: 0, count.__code__: 0}

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code in watched:
            watched[frame.f_code] += 1

    sys.setprofile(hook)
    try:
        system.execute_many(queries)
    finally:
        sys.setprofile(None)
    return watched[Span.__init__.__code__], watched[count.__code__]


def _unit_cost(work, repeats: int = 20_000) -> float:
    """Seconds per call of ``work`` under an open root, trimmed mean.

    The probe root is emptied before it finishes, so the probes fold
    nothing into the process total.
    """
    samples = []
    for _ in range(max(BENCH_TRIALS, 3)):
        with span("probe") as root:
            started = time.perf_counter()
            for _ in range(repeats):
                work()
            samples.append((time.perf_counter() - started) / repeats)
            root.counts.clear()
    return trimmed_mean(samples)


def _span_with_a_count() -> None:
    with span("stage"):
        count("plan_cache_hits")


def test_tracing_overhead_on_warm_queries(xmark_doc, obs_queries):
    """The instrumentation a warm query carries stays within the gate."""
    system = SecureXMLSystem.host(
        xmark_doc, xmark_constraints(), scheme="opt", master_key=MASTER_KEY
    )
    queries = obs_queries
    wall_s = _timed_warm(system, queries) / len(queries)
    spans, counts = _instrumentation_calls(system, queries)
    spans_per_query = spans / len(queries)
    counts_per_query = counts / len(queries)

    gc.disable()
    try:
        span_unit_s = _unit_cost(_span_with_a_count)
        count_unit_s = _unit_cost(lambda: count("plan_cache_hits"))
        traces = list(system.last_batch_traces)
        obs = system.observability()
        samples = []
        for _ in range(20):
            started = time.perf_counter()
            for trace in traces:
                obs.record_query(trace)
            samples.append((time.perf_counter() - started) / len(traces))
        record_s = trimmed_mean(samples)
    finally:
        gc.enable()
    instrumentation_s = (
        spans_per_query * span_unit_s
        + counts_per_query * count_unit_s
        + record_s
    )
    ratio = 1.0 + instrumentation_s / wall_s

    # Something was recorded — otherwise the gate is pricing nothing.
    histograms = obs.metrics.snapshot()["histograms"]
    assert histograms["query_seconds"]["count"] > 0
    assert spans_per_query > 0 and counts_per_query > 0
    assert all(trace.span.duration_s is not None for trace in traces)

    rows = [
        ["spans opened", spans_per_query, span_unit_s * 1e6],
        ["counts made", counts_per_query, count_unit_s * 1e6],
        ["record_query", 1.0, record_s * 1e6],
    ]
    write_result(
        "obs_overhead",
        format_table(
            ["per warm query", "calls", "unit_us"],
            rows,
            f"Observability — {len(queries)} warm queries, "
            f"wall {wall_s * 1e6:.1f}µs, instrumentation "
            f"{instrumentation_s * 1e6:.1f}µs = "
            f"{(ratio - 1.0) * 100:.1f}% (limit {OVERHEAD_LIMIT * 100:.0f}%)",
        ),
    )
    _append_series(
        "obs_overhead",
        {
            "query_count": len(queries),
            "warm_query_s": wall_s,
            "spans_per_query": spans_per_query,
            "counts_per_query": counts_per_query,
            "span_unit_s": span_unit_s,
            "count_unit_s": count_unit_s,
            "record_query_s": record_s,
            "instrumentation_per_query_s": instrumentation_s,
            "ratio": ratio,
            "limit_ratio": 1.0 + OVERHEAD_LIMIT,
        },
    )
    assert ratio <= 1.0 + OVERHEAD_LIMIT or instrumentation_s <= (
        ABSOLUTE_FLOOR_S
    ), (
        f"instrumentation {instrumentation_s * 1e6:.1f}µs/query is "
        f"{(ratio - 1.0) * 100:.1f}% of the {wall_s * 1e6:.1f}µs warm "
        f"query, over the {OVERHEAD_LIMIT * 100:.0f}% gate"
    )
