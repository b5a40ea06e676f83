"""E-hotpath — before/after benchmark for the hot-path overhaul.

The seed implementation spent its time exactly where the paper's Fig. 9
breakdown predicts: client-side block decryption (per-byte spec-path AES)
and repeated server-side fragment assembly.  This benchmark measures the
overhaul head-to-head on the XMark workload:

* **block decryption** — CBC-decrypting every hosted ciphertext block
  with the T-table fast path vs. the seed's FIPS-197 spec path (same
  keys, same bytes, identical plaintexts): must be ≥3× faster;
* **repeated-query latency** — a batch of Qs/Qm queries through
  ``execute_many`` on a warm fast-path system vs. the seed-equivalent
  system (``fast_path=False``: spec AES, no caches): must be ≥5× faster,
  with cache counters proving misses happen only on the cold pass.

Results are written both as a human-readable table under
``benchmarks/results/`` and as machine-readable ``BENCH_hotpath.json``
at the repository root, so the perf trajectory is trackable across PRs.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.bench.harness import format_table, trimmed_mean
from repro.core.system import SecureXMLSystem
from repro.crypto.keyring import ClientKeyring
from repro.crypto.modes import cbc_decrypt
from repro.perf import counters
from repro.workloads.xmark import xmark_constraints
from repro.xpath.compiler import UnsupportedQuery

from conftest import BENCH_TRIALS, write_result

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_hotpath.json")
MASTER_KEY = b"hotpath-benchmark-master-key-001"

#: accumulated across the tests in this module; rewritten after each
_REPORT: dict[str, object] = {"trials": BENCH_TRIALS}


def _write_report() -> None:
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(_REPORT, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def hotpath_systems(xmark_doc):
    """(fast, seed-equivalent) systems hosting the same XMark document."""
    constraints = xmark_constraints()
    fast = SecureXMLSystem.host(
        xmark_doc, constraints, scheme="opt", master_key=MASTER_KEY
    )
    seed = SecureXMLSystem.host(
        xmark_doc,
        constraints,
        scheme="opt",
        master_key=MASTER_KEY,
        fast_path=False,
    )
    return fast, seed


@pytest.fixture(scope="module")
def hotpath_queries(hotpath_systems, xmark_queries):
    """Server-evaluable Qs+Qm queries (naive fallbacks would swamp the
    measurement with ship-everything transfers)."""
    _, seed = hotpath_systems
    queries = []
    for query_class in ("Qs", "Qm"):
        for query in xmark_queries[query_class]:
            try:
                seed.client.translate(query)  # seed client: no plan cache
            except UnsupportedQuery:
                continue
            if query not in queries:
                queries.append(query)
    assert queries, "workload produced no server-evaluable queries"
    return queries


def test_block_decrypt_throughput(hotpath_systems):
    """T-table CBC decryption is ≥3× the seed spec path, bytes-identical."""
    fast_system, _ = hotpath_systems
    blocks = fast_system.hosted.blocks
    fast_keyring = ClientKeyring(MASTER_KEY, fast_aes=True)
    seed_keyring = ClientKeyring(MASTER_KEY, fast_aes=False)
    total_bytes = sum(len(payload) for payload in blocks.values())
    assert total_bytes > 0

    # Precompute IVs: the subject under test is the cipher itself, not
    # the (memoized) per-block IV derivation.
    ivs = {
        block_id: fast_keyring.block_iv(block_id) for block_id in blocks
    }

    def decrypt_all(keyring: ClientKeyring) -> list[bytes]:
        cipher = keyring.block_cipher
        return [
            cbc_decrypt(cipher, ivs[block_id], payload)
            for block_id, payload in blocks.items()
        ]

    assert decrypt_all(fast_keyring) == decrypt_all(seed_keyring)

    def timed(keyring: ClientKeyring) -> float:
        samples = []
        for _ in range(BENCH_TRIALS):
            started = time.perf_counter()
            decrypt_all(keyring)
            samples.append(time.perf_counter() - started)
        return trimmed_mean(samples)

    fast_s = timed(fast_keyring)
    seed_s = timed(seed_keyring)
    speedup = seed_s / fast_s

    rows = [
        ["seed (spec AES)", seed_s, total_bytes / seed_s / 1e6],
        ["fast (T-table)", fast_s, total_bytes / fast_s / 1e6],
    ]
    write_result(
        "hotpath_decrypt_throughput",
        format_table(
            ["path", "t_decrypt_all", "MB/s"],
            rows,
            f"Hot path — CBC decryption of {len(blocks)} blocks "
            f"({total_bytes} bytes), speedup {speedup:.1f}x",
        ),
    )
    _REPORT["decrypt"] = {
        "block_count": len(blocks),
        "total_bytes": total_bytes,
        "seed_s": seed_s,
        "fast_s": fast_s,
        "seed_mb_per_s": total_bytes / seed_s / 1e6,
        "fast_mb_per_s": total_bytes / fast_s / 1e6,
        "speedup": speedup,
    }
    _write_report()
    assert speedup >= 3.0, f"decrypt speedup {speedup:.2f}x below 3x target"


def test_repeated_query_latency(hotpath_systems, hotpath_queries):
    """Warm repeated queries beat the seed path ≥5×; caches hit only
    after the cold pass and answers stay exact."""
    fast_system, seed_system = hotpath_systems
    queries = hotpath_queries

    # --- seed-equivalent baseline: no caches, spec AES ---
    seed_samples = []
    for _ in range(BENCH_TRIALS):
        started = time.perf_counter()
        seed_answers = seed_system.execute_many(queries)
        seed_samples.append(time.perf_counter() - started)
    seed_s = trimmed_mean(seed_samples)

    # --- fast path, cold pass (first execution ever on this system) ---
    before_cold = counters.snapshot()
    started = time.perf_counter()
    cold_answers = fast_system.execute_many(queries)
    cold_s = time.perf_counter() - started
    cold_delta = counters.delta_since(before_cold)

    # Cold pass: plan-cache misses only (one per distinct query).
    assert cold_delta["plan_cache_hits"] == 0
    assert cold_delta["plan_cache_misses"] == len(queries)
    assert cold_delta["blocks_decrypted"] > 0

    # --- fast path, warm passes ---
    warm_samples = []
    before_warm = counters.snapshot()
    for _ in range(BENCH_TRIALS):
        started = time.perf_counter()
        warm_answers = fast_system.execute_many(queries)
        warm_samples.append(time.perf_counter() - started)
    warm_s = trimmed_mean(warm_samples)
    warm_delta = counters.delta_since(before_warm)

    # Warm passes: hits only — no new translations, serializations or
    # block decryptions anywhere in the batch.  The server's sealed wire
    # cache sits *above* fragment assembly, so warm repeats never even
    # consult the fragment cache (zero traffic, zero misses).
    assert warm_delta["plan_cache_hits"] == len(queries) * BENCH_TRIALS
    assert warm_delta["plan_cache_misses"] == 0
    assert warm_delta["fragment_cache_hits"] == 0
    assert warm_delta["fragment_cache_misses"] == 0
    assert warm_delta["tree_cache_hits"] > 0
    assert warm_delta["tree_cache_misses"] == 0
    assert warm_delta["block_cache_misses"] == 0
    assert warm_delta["blocks_decrypted"] == 0

    # Exactness is untouched by the fast path.
    for seed_answer, cold_answer, warm_answer in zip(
        seed_answers, cold_answers, warm_answers
    ):
        assert seed_answer.canonical() == cold_answer.canonical()
        assert seed_answer.canonical() == warm_answer.canonical()

    speedup_warm = seed_s / warm_s
    speedup_cold = seed_s / cold_s
    rows = [
        ["seed (no caches, spec AES)", seed_s, 1.0],
        ["fast, cold caches", cold_s, speedup_cold],
        ["fast, warm caches", warm_s, speedup_warm],
    ]
    write_result(
        "hotpath_repeated_queries",
        format_table(
            ["path", "t_batch", "speedup"],
            rows,
            f"Hot path — batch of {len(queries)} XMark queries "
            f"(Qs+Qm), repeated-query speedup {speedup_warm:.1f}x",
        ),
    )
    _REPORT["repeated_query"] = {
        "query_count": len(queries),
        "seed_batch_s": seed_s,
        "cold_batch_s": cold_s,
        "warm_batch_s": warm_s,
        "speedup_cold_vs_seed": speedup_cold,
        "speedup_warm_vs_seed": speedup_warm,
    }
    _REPORT["cache"] = {
        "cold": {k: v for k, v in cold_delta.items() if v},
        "warm": {k: v for k, v in warm_delta.items() if v},
        "plan_hit_rate_warm": 1.0,
        "block_hit_rate_warm": counters.hit_rate("block"),
    }
    _write_report()
    assert speedup_warm >= 5.0, (
        f"repeated-query speedup {speedup_warm:.2f}x below 5x target"
    )
