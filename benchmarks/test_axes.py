"""Axis-engine benchmark: blocks shipped vs the naive baseline.

Before the axis engine, every reverse/order/positional query fell off
the server-evaluable fragment and degraded to the naive protocol —
shipping the whole encrypted database.  This experiment quantifies what
the interval-algebra joins buy back: for a gate set of selective
ancestor/parent/sibling queries over the XMark corpus, the server now
ships only the surviving fragments, and the acceptance gate requires a
**≥5× aggregate reduction in blocks shipped** versus naive.

A second gate pins the planner: every query of the full axis-complete
workload (all thirteen axes plus positional predicates, three corpora)
is served by an axis or residual plan — none reaches the naive protocol.

At the full trial count, results land in
``benchmarks/results/axes_vs_naive.txt`` (human table) and
``BENCH_axes.json`` at the repository root (machine-readable gate); a
faster run only prints them.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.system import SecureXMLSystem
from repro.workloads.axes import AxisWorkload
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import nasa_constraints
from repro.workloads.xmark import _CITIES, xmark_constraints

from conftest import BENCH_TRIALS, write_result, write_series

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_axes.json")

#: acceptance gate: aggregate naive/secure blocks-shipped ratio
MIN_BLOCK_REDUCTION = 5.0

#: Selective reverse/order-axis queries — the shapes the axis engine
#: exists for.  Each anchors on a value predicate so the server-side
#: semi-joins have something to prune (an unselective ``//x/..`` ships
#: every parent by definition and measures nothing).
GATE_QUERIES = (
    f"//address[city='{_CITIES[0]}']/ancestor::person",
    "//profile[income>=100000]/ancestor::person",
    "//profile[age<25]/parent::person",
    "//profile[income>=100000]/preceding-sibling::name",
    f"//address[city='{_CITIES[1]}']/following-sibling::profile",
    "//itemref/following-sibling::current",
    "//reserve/preceding-sibling::itemref",
)

@pytest.fixture(scope="module")
def xmark_system(xmark_doc):
    return SecureXMLSystem.host(
        xmark_doc, xmark_constraints(), scheme="opt"
    )


class TestBlocksShippedVsNaive:
    def test_gate_queries_ship_5x_fewer_blocks(self, xmark_system):
        system = xmark_system
        rows = []
        report_rows = []
        total_secure = 0
        total_naive = 0
        for query in GATE_QUERIES:
            secure_s = []
            for _ in range(BENCH_TRIALS):
                started = time.perf_counter()
                answer = system.query(query)
                secure_s.append(time.perf_counter() - started)
            secure_blocks = system.last_trace.blocks_returned
            plan = system.last_trace.plan
            system.naive_query(query)
            naive_blocks = system.last_trace.blocks_returned
            assert system.last_trace.plan == "naive" and naive_blocks > 0
            total_secure += secure_blocks
            total_naive += naive_blocks
            ratio = naive_blocks / max(1, secure_blocks)
            rows.append(
                f"{ratio:8.1f}x  {secure_blocks:5d} vs {naive_blocks:5d}"
                f"  [{plan}]  answers={len(answer):3d}  {query}"
            )
            report_rows.append(
                {
                    "query": query,
                    "plan": plan,
                    "blocks_secure": secure_blocks,
                    "blocks_naive": naive_blocks,
                    "reduction": ratio,
                    "secure_s_min": min(secure_s),
                }
            )
        aggregate = total_naive / max(1, total_secure)
        write_series(
            BENCH_JSON,
            trials=BENCH_TRIALS,
            vs_naive={
                "queries": report_rows,
                "blocks_secure_total": total_secure,
                "blocks_naive_total": total_naive,
                "aggregate_reduction": aggregate,
                "gate_min_reduction": MIN_BLOCK_REDUCTION,
            },
        )
        write_result(
            "axes_vs_naive",
            "\n".join(
                [
                    "axis engine vs naive baseline (blocks shipped)",
                    f"aggregate reduction: {aggregate:.1f}x "
                    f"(gate: >= {MIN_BLOCK_REDUCTION:.0f}x)",
                ]
                + rows
            ),
        )
        assert aggregate >= MIN_BLOCK_REDUCTION, (
            f"axis plans shipped {total_secure} blocks vs naive "
            f"{total_naive}: {aggregate:.2f}x < {MIN_BLOCK_REDUCTION}x"
        )


class TestNoNaiveFallbacks:
    def test_axis_workload_never_reaches_naive(
        self, xmark_system, xmark_doc, nasa_doc
    ):
        healthcare_doc = build_healthcare_database()
        systems = [
            (xmark_system, xmark_doc),
            (
                SecureXMLSystem.host(
                    nasa_doc, nasa_constraints(), scheme="opt"
                ),
                nasa_doc,
            ),
            (
                SecureXMLSystem.host(
                    healthcare_doc, healthcare_constraints(), scheme="opt"
                ),
                healthcare_doc,
            ),
        ]
        plans: dict[str, int] = {}
        queries_run = 0
        for system, document in systems:
            for query in AxisWorkload(document, seed=7).queries():
                system.query(query)
                trace = system.last_trace
                assert trace.plan != "naive", query
                plans[trace.plan] = plans.get(trace.plan, 0) + 1
                queries_run += 1
        write_series(
            BENCH_JSON,
            axis_workload={"queries": queries_run, "plans": plans},
        )
        write_result(
            "axes_fallbacks",
            f"axis-complete workload: {queries_run} queries, plans={plans}",
        )
