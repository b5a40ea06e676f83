"""E-serving — sustained socket QPS vs the in-process warm path.

Measures the asyncio serving layer's front-door overhead under real
concurrency: ``REPRO_SERVING_CLIENTS`` (default 100) socket clients each
issue a mixed sequence of sealed queries and sealed updates through
:func:`~repro.serving.loadgen.run_load`, against one served healthcare
tenant.  The baseline is the *in-process warm path*: the exact same
operation sequence, executed sequentially through the same owner-side
sealer against ``system.server`` directly — same crypto, same server
work, no sockets, no event loop, no admission control.

The acceptance gate is relative, so it holds on any hardware: sustained
socket QPS must be within ``REPRO_SERVING_QPS_FACTOR`` (default 2x) of
the in-process warm path, with zero failed operations.  A byte-identity
pre-phase pins correctness first — a QPS number that changed an answer
would be a bug, not a result.

Results land in ``benchmarks/results/`` (human-readable) and
machine-readable ``BENCH_serving.json`` at the repository root.
"""

from __future__ import annotations

import gc
import json
import os
import time

import pytest

from repro.bench.harness import format_table, trimmed_mean
from repro.core.client import Client
from repro.core.system import SecureXMLSystem
from repro.serving import ServingServer, remote_system
from repro.serving.loadgen import run_load
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)

from conftest import BENCH_TRIALS, write_result

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_serving.json")

#: concurrent socket clients (the issue's acceptance point is 100)
CLIENTS = int(os.environ.get("REPRO_SERVING_CLIENTS", "100"))

#: operations per client per trial
OPS_PER_CLIENT = int(os.environ.get("REPRO_SERVING_OPS", "20"))

#: every Nth operation of the global sequence is a sealed update
UPDATE_EVERY = 25

#: gate: serving QPS * factor must reach the in-process warm QPS
QPS_FACTOR = float(os.environ.get("REPRO_SERVING_QPS_FACTOR", "2.0"))

#: the chaos suite's query mix — one per §7.1 shape that matters here
QUERIES = [
    "//patient[.//insurance//@coverage>=10000]//SSN",
    "//treat[disease='leukemia']/doctor",
    "//patient[age>36]/pname",
    "//insurance/policy#",
    "//SSN",
]

#: update target that always matches exactly one node, so the two ops
#: can alternate forever without ever invalidating each other
PROBE = "//patient[pname='Betty']/SSN"
UPDATE_OPS = [
    {"op": "update_value", "xpath": PROBE, "new_value": "111111"},
    {"op": "update_value", "xpath": PROBE, "new_value": "222222"},
]

_REPORT: dict[str, object] = {
    "trials": BENCH_TRIALS,
    "clients": CLIENTS,
    "ops_per_client": OPS_PER_CLIENT,
    "update_every": UPDATE_EVERY,
    "qps_factor": QPS_FACTOR,
}


def _write_report() -> None:
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(_REPORT, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def stack():
    """One served healthcare tenant plus its owner-side system."""
    local = SecureXMLSystem.host(
        build_healthcare_database(),
        healthcare_constraints(),
        scheme="opt",
    )
    # One outstanding op per client: an admission bound at the client
    # count measures serving throughput, not retry-storm throughput.
    server = ServingServer(max_inflight=CLIENTS + 16)
    server.register_tenant("bench", local)
    address = server.start()
    yield local, server, address
    server.stop()
    local.close()


def test_served_answers_are_byte_identical(stack):
    """Correctness gate before any throughput number is recorded."""
    local, _server, address = stack
    remote = remote_system(local, address, "bench")
    try:
        for query in QUERIES:
            assert (
                remote.query(query).canonical()
                == local.query(query).canonical()
            ), query
    finally:
        remote.close()
    _REPORT["byte_identity"] = {"queries": len(QUERIES), "ok": True}
    _write_report()


def _inprocess_pass(local: SecureXMLSystem, sealer: Client) -> float:
    """The same global op sequence, sequential and socket-free."""
    total = CLIENTS * OPS_PER_CLIENT
    started = time.perf_counter()
    for seq in range(total):
        if seq % UPDATE_EVERY == UPDATE_EVERY - 1:
            op = UPDATE_OPS[seq % len(UPDATE_OPS)]
            local.update_value(op["xpath"], op["new_value"])
        else:
            xpath = QUERIES[seq % len(QUERIES)]
            plan = sealer.translate(xpath)
            blob = sealer.seal_request(plan, cache_key=xpath)
            sealer.open_response(local.server.answer_wire(blob))
    return time.perf_counter() - started


def test_sustained_qps_within_factor_of_inprocess(stack):
    local, _server, address = stack

    # Warm pass: connections, plan/seal caches, server memo — both the
    # serving path and the baseline measure warm steady state.
    warm = run_load(
        address, "bench", local, QUERIES,
        clients=CLIENTS, ops_per_client=2,
        update_ops=UPDATE_OPS, update_every=UPDATE_EVERY,
    )
    assert warm.failures == 0, "warm-up pass failed operations"

    trials = []
    gc.collect()
    for _ in range(BENCH_TRIALS):
        report = run_load(
            address, "bench", local, QUERIES,
            clients=CLIENTS, ops_per_client=OPS_PER_CLIENT,
            update_ops=UPDATE_OPS, update_every=UPDATE_EVERY,
        )
        assert report.failures == 0, (
            f"{report.failures} operations exhausted retries"
        )
        assert report.operations == CLIENTS * OPS_PER_CLIENT
        trials.append(report)
    serving_qps = trimmed_mean([t.qps for t in trials])

    sealer = Client(local.keyring, local.hosted)
    _inprocess_pass(local, sealer)  # warm the sealer's caches
    gc.collect()
    gc.disable()
    try:
        inproc_samples = [
            (CLIENTS * OPS_PER_CLIENT) / _inprocess_pass(local, sealer)
            for _ in range(BENCH_TRIALS)
        ]
    finally:
        gc.enable()
    inproc_qps = trimmed_mean(inproc_samples)

    ratio = inproc_qps / serving_qps if serving_qps else float("inf")
    rows = [
        ["serving (sockets)", CLIENTS, trials[-1].operations,
         trials[-1].retries, f"{serving_qps:.0f}"],
        ["in-process warm", 1, CLIENTS * OPS_PER_CLIENT, 0,
         f"{inproc_qps:.0f}"],
    ]
    write_result(
        "serving_qps",
        format_table(
            ["path", "clients", "ops", "retries", "qps"],
            rows,
            f"Sustained QPS — {CLIENTS} concurrent socket clients vs the "
            f"sequential in-process warm path (gate: within "
            f"{QPS_FACTOR:.1f}x)",
        ),
    )
    _REPORT["sustained_qps"] = {
        "serving_qps": serving_qps,
        "inprocess_qps": inproc_qps,
        "overhead_ratio": ratio,
        "serving_trials": [
            {
                "qps": t.qps,
                "queries": t.queries,
                "updates": t.updates,
                "retries": t.retries,
                "flight_accepts": t.flight_accepts,
                "elapsed_s": t.elapsed_s,
            }
            for t in trials
        ],
    }
    _write_report()

    assert serving_qps * QPS_FACTOR >= inproc_qps, (
        f"socket path sustained {serving_qps:.0f} qps, more than "
        f"{QPS_FACTOR:.1f}x below the in-process warm path "
        f"({inproc_qps:.0f} qps)"
    )
