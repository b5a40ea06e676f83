"""E-leak — access-pattern leakage gate.

Plays the known-query recovery game of :mod:`repro.security.leakage`
once over a healthcare hosting with the countermeasures on (padded
fetches + decoys, drawn from the owner-keyed cover stream), scoring two
observers off that one run: the unprotected one sees each query's real
fetches (the attacker baseline), the protected one the served sequence.
The gate holds three numbers:

* the *baseline* attacker must genuinely win (max advantage at or above
  ``REPRO_LEAKAGE_MIN_BASELINE``) — otherwise the game is measuring a
  toothless attacker and the countermeasure numbers mean nothing;
* the *residual* advantage with the countermeasures on stays at or below
  ``REPRO_LEAKAGE_MAX_ADVANTAGE``;
* the bandwidth price of the cover traffic stays within
  ``REPRO_LEAKAGE_OVERHEAD_LIMIT`` (extra ciphertext bytes fetched per
  real byte).

Byte-identity of the protected answers is asserted on the way.
At the full trial count, results land in ``BENCH_leakage.json``
(read-modify-write) and a table under ``benchmarks/results/``; a faster
run only prints them.
"""

from __future__ import annotations

import os

from repro.bench.harness import format_table
from repro.core.system import SecureXMLSystem
from repro.security.leakage import run_leakage_game
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)

from conftest import write_result, write_series

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_leakage.json")

#: the profiled query set — six distinct access patterns over Figure 2.
QUERIES = (
    "//patient",
    "//patient[.//insurance//@coverage>=10000]//SSN",
    "//treat[disease='leukemia']/doctor",
    "//patient[age>36]/pname",
    "//insurance/policy#",
    "//SSN",
)

REPEATS = max(2, int(os.environ.get("REPRO_LEAKAGE_REPEATS", "4")))
#: orders the attack phase's issues; the cover draws come from the
#: hosting's master key, which no seed reaches.
SEED = int(os.environ.get("REPRO_LEAKAGE_SEED", "0"))

#: the unprotected attacker must beat guessing by at least this much.
MIN_BASELINE = float(os.environ.get("REPRO_LEAKAGE_MIN_BASELINE", "0.4"))
#: residual advantage allowed once the full policy is on.
MAX_ADVANTAGE = float(os.environ.get("REPRO_LEAKAGE_MAX_ADVANTAGE", "0.25"))
#: cover-traffic bytes allowed per real byte shipped.
OVERHEAD_LIMIT = float(
    os.environ.get("REPRO_LEAKAGE_OVERHEAD_LIMIT", "16.0")
)


def _host(leakage):
    return SecureXMLSystem.host(
        build_healthcare_database(),
        healthcare_constraints(),
        scheme="opt",
        leakage=leakage,
    )


def _series(game):
    return {
        "query_count": game.query_count,
        "repeats": game.repeats,
        "max_advantage": game.max_advantage,
        "bandwidth_overhead": game.bandwidth_overhead,
        "per_method": {
            report.method: {
                "accuracy": report.accuracy,
                "advantage": report.advantage,
            }
            for report in game.reports
        },
    }


def test_countermeasures_gate_residual_advantage():
    """The countermeasures crush the attacker within the bandwidth budget."""
    queries = list(QUERIES)
    reference = _host(leakage=False)
    system = _host(leakage=True)

    # Byte-identity first: the countermeasures must not move one answer
    # byte, or the leakage numbers describe a different system.
    for query in queries:
        expected = reference.query(query).canonical()
        assert system.query(query).canonical() == expected, query

    baseline, protected = run_leakage_game(
        system, queries, repeats=REPEATS, seed=SEED
    )

    rows = [
        ["unprotected", baseline.max_advantage,
         baseline.bandwidth_overhead],
        ["countermeasures on", protected.max_advantage,
         protected.bandwidth_overhead],
    ]
    write_result(
        "leakage_game",
        format_table(
            ["configuration", "max_advantage", "bw_overhead_x"],
            rows,
            f"Leakage — known-query recovery over {len(queries)} queries "
            f"x {REPEATS} repeats (seed {SEED}); gate: baseline >= "
            f"{MIN_BASELINE}, residual <= {MAX_ADVANTAGE}, "
            f"overhead <= {OVERHEAD_LIMIT}x",
        ),
    )
    write_series(
        BENCH_JSON,
        leakage_game={
            "seed": SEED,
            "queries": len(queries),
            "repeats": REPEATS,
            "gates": {
                "min_baseline_advantage": MIN_BASELINE,
                "max_residual_advantage": MAX_ADVANTAGE,
                "overhead_limit": OVERHEAD_LIMIT,
            },
            "unprotected": _series(baseline),
            "protected": _series(protected),
        },
    )

    assert baseline.max_advantage >= MIN_BASELINE, (
        f"baseline attacker advantage {baseline.max_advantage:.3f} below "
        f"{MIN_BASELINE} — the game is not measuring a real attack"
    )
    assert baseline.bandwidth_overhead == 0.0
    assert protected.max_advantage <= MAX_ADVANTAGE, (
        f"residual advantage {protected.max_advantage:.3f} exceeds the "
        f"{MAX_ADVANTAGE} gate"
    )
    assert 0.0 < protected.bandwidth_overhead <= OVERHEAD_LIMIT, (
        f"cover traffic costs {protected.bandwidth_overhead:.2f}x real "
        f"bytes (limit {OVERHEAD_LIMIT}x)"
    )
