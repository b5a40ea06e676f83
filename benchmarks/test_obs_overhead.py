"""E-obs — tracing overhead gate for the observability layer.

The observability layer promises "always-on" tracing: every query gets a
span tree, latency histograms and a slow-log entry.  That promise is only
tenable if the instrumentation is cheap, so this benchmark runs the same
warm repeated-query batch on two otherwise-identical systems —
observability enabled vs. ``observability=False`` — and gates the enabled
path's throughput regression.

The gate passes when either

* the warm batch is within ``REPRO_OBS_OVERHEAD`` (default 5%) of the
  disabled baseline, or
* the absolute per-query cost is under a tiny floor (50µs) — on a batch
  this fast, the ratio is measuring timer noise, not instrumentation.

Results are appended to ``BENCH_hotpath.json`` as an ``obs_overhead``
series (read-modify-write, so the other series survives) and a table
under ``benchmarks/results/``.
"""

from __future__ import annotations

import gc
import json
import os
import time

import pytest

from repro.bench.harness import format_table, trimmed_mean
from repro.core.system import SecureXMLSystem
from repro.workloads.xmark import xmark_constraints
from repro.xpath.compiler import UnsupportedQuery

from conftest import BENCH_TRIALS, write_result

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_hotpath.json")
MASTER_KEY = b"hotpath-benchmark-master-key-001"

#: allowed warm-throughput regression with tracing on (ratio - 1).
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


def test_tracing_overhead_on_warm_queries(xmark_doc, obs_queries):
    """Enabled observability stays within the throughput gate."""
    constraints = xmark_constraints()
    enabled = SecureXMLSystem.host(
        xmark_doc, constraints, scheme="opt", master_key=MASTER_KEY
    )
    disabled = SecureXMLSystem.host(
        xmark_doc,
        constraints,
        scheme="opt",
        master_key=MASTER_KEY,
        observability=False,
    )
    assert enabled.observability().enabled
    assert not disabled.observability().enabled

    queries = obs_queries
    disabled_s = _timed_warm(disabled, queries)
    enabled_s = _timed_warm(enabled, queries)
    ratio = enabled_s / disabled_s if disabled_s > 0 else 1.0
    per_query_delta = (enabled_s - disabled_s) / len(queries)

    # The enabled system actually recorded things while the disabled one
    # stayed dark — otherwise the gate is comparing identical code paths.
    on = enabled.observability().metrics.snapshot()["histograms"]
    off = disabled.observability().metrics.snapshot()["histograms"]
    assert on["query_seconds"]["count"] > 0
    assert off["query_seconds"]["count"] == 0

    rows = [
        ["observability off", disabled_s, 1.0],
        ["observability on", enabled_s, ratio],
    ]
    write_result(
        "obs_overhead",
        format_table(
            ["path", "t_batch", "ratio"],
            rows,
            f"Observability — warm batch of {len(queries)} queries, "
            f"overhead {max(ratio - 1.0, 0.0) * 100:.1f}% "
            f"(limit {OVERHEAD_LIMIT * 100:.0f}%)",
        ),
    )
    _append_series(
        "obs_overhead",
        {
            "query_count": len(queries),
            "disabled_batch_s": disabled_s,
            "enabled_batch_s": enabled_s,
            "ratio": ratio,
            "per_query_delta_s": per_query_delta,
            "limit_ratio": 1.0 + OVERHEAD_LIMIT,
        },
    )
    assert ratio <= 1.0 + OVERHEAD_LIMIT or per_query_delta <= (
        ABSOLUTE_FLOOR_S
    ), (
        f"tracing overhead {ratio:.3f}x exceeds the "
        f"{1.0 + OVERHEAD_LIMIT:.2f}x gate "
        f"({per_query_delta * 1e6:.1f}µs/query)"
    )
