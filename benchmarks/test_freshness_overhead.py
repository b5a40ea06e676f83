"""E-fresh — freshness-envelope overhead gate.

The rxi2 envelope adds an epoch + Merkle-root header to every sealed
message and a header comparison to every verify.  The anti-rollback
guarantee is only a free lunch if that cost is invisible next to the
query work itself, so this benchmark measures the *full* per-response
freshness verification — ``unseal_fresh`` on real sealed response blobs,
including the MAC over header+payload and the constant-time epoch/root
comparison — and gates it against the warm per-query latency of the same
workload.

The gate passes when either

* verification costs within ``REPRO_FRESHNESS_OVERHEAD`` (default 5%)
  of a warm query, or
* the absolute per-verify cost is under a tiny floor (50µs) — below
  that, the ratio measures timer noise, not crypto.

At the full trial count, results are merged into ``BENCH_hotpath.json``
as a ``freshness_overhead`` series (the other series survive) and a table
under ``benchmarks/results/``; a faster run only prints them.
"""

from __future__ import annotations

import gc
import os
import time

import pytest

from repro.bench.harness import format_table, trimmed_mean
from repro.core.integrity import FRESH_OVERHEAD, unseal_fresh
from repro.core.system import SecureXMLSystem
from repro.workloads.xmark import xmark_constraints
from repro.xpath.compiler import UnsupportedQuery

from conftest import BENCH_TRIALS, write_result, write_series

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_hotpath.json")
MASTER_KEY = b"freshness-bench-master-key-0001!"

#: allowed freshness-verify cost as a fraction of warm query latency.
OVERHEAD_LIMIT = float(os.environ.get("REPRO_FRESHNESS_OVERHEAD", "0.05"))
#: below this per-verify cost the ratio gate measures noise, not work.
ABSOLUTE_FLOOR_S = 50e-6


@pytest.fixture(scope="module")
def fresh_queries(xmark_doc, xmark_queries):
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


def test_freshness_verify_overhead_on_warm_queries(xmark_doc, fresh_queries):
    """Per-response rxi2 verification stays within the latency gate."""
    system = SecureXMLSystem.host(
        xmark_doc, xmark_constraints(), scheme="opt", master_key=MASTER_KEY
    )
    queries = fresh_queries

    # Warm per-query latency on the full end-to-end path.
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
    warm_query_s = trimmed_mean(samples) / len(queries)

    # The exact blobs the cold path verifies: real sealed responses.
    client = system.client
    hosted = system.hosted
    blobs = []
    for query in queries:
        translated = client.translate(query)
        request = client.seal_request(translated, cache_key=query)
        blobs.append(system.server.answer_wire(request))
    assert all(len(blob) > FRESH_OVERHEAD for blob in blobs)

    key = client._response_key
    epoch = hosted.epoch
    root = hosted.state_root()
    gc.collect()
    gc.disable()
    try:
        verify_samples = []
        for _ in range(max(BENCH_TRIALS, 3)):
            started = time.perf_counter()
            for blob in blobs:
                unseal_fresh(key, blob, epoch, root)
            verify_samples.append(time.perf_counter() - started)
    finally:
        gc.enable()
    verify_s = trimmed_mean(verify_samples) / len(blobs)

    ratio = verify_s / warm_query_s if warm_query_s > 0 else 0.0
    rows = [
        ["warm query", warm_query_s, 1.0],
        ["freshness verify", verify_s, ratio],
    ]
    write_result(
        "freshness_overhead",
        format_table(
            ["path", "t_per_query", "fraction"],
            rows,
            f"Freshness — rxi2 verify vs warm query over {len(queries)} "
            f"queries, cost {ratio * 100:.2f}% "
            f"(limit {OVERHEAD_LIMIT * 100:.0f}%)",
        ),
    )
    write_series(
        BENCH_JSON,
        freshness_overhead={
            "query_count": len(queries),
            "warm_query_s": warm_query_s,
            "verify_s": verify_s,
            "fraction": ratio,
            "limit_fraction": OVERHEAD_LIMIT,
            "mean_blob_bytes": sum(len(b) for b in blobs) / len(blobs),
        },
    )
    assert ratio <= OVERHEAD_LIMIT or verify_s <= ABSOLUTE_FLOOR_S, (
        f"freshness verify {verify_s * 1e6:.1f}µs/query is "
        f"{ratio * 100:.1f}% of a warm query "
        f"(limit {OVERHEAD_LIMIT * 100:.0f}%)"
    )
