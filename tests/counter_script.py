"""A fixed healthcare script whose per-step counter deltas are pinned.

Four queries cold, the same four warm, one query whose every attempt
fails the owner's block tags, then one insert.  Each step's nonzero
counter deltas are what ``tests/fixtures/counter_script_deltas.json``
holds; ``tests/test_perf_counters.py`` holds the running code to them.

Regenerate (only with a reason written down) with::

    PYTHONPATH=src:tests python tests/counter_script.py \
        > tests/fixtures/counter_script_deltas.json

The script uses only what every version of the package since the
fixture was taken offers — ``SecureXMLSystem`` and its observability
context's ``counter_values`` / ``counters_delta`` — so it runs unchanged
against the commit the fixture was taken at.
"""

from __future__ import annotations

import json
import sys

from repro.core.system import QueryFailedError, SecureXMLSystem
from repro.crypto.aes import _expand_key_cached, aes128_for_key
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)

QUERIES = [
    "//patient[.//insurance//@coverage>=10000]//SSN",
    "//treat[disease='leukemia']/doctor",
    "//patient[age>36]/pname",
    "//SSN",
]
TAMPERED_QUERY = "//insurance"
INSERT = ("//patient[pname='Matt']/treat", "doctor", "Smith")


def run_script() -> dict[str, dict[str, int]]:
    """Step name → that step's nonzero counter deltas, in script order."""
    # Key schedules are memoized process-wide: start from none, so the
    # steps expand the same keys whatever ran before in this process.
    _expand_key_cached.cache_clear()
    aes128_for_key.cache_clear()
    system = SecureXMLSystem.host(
        build_healthcare_database(), healthcare_constraints(), leakage=False
    )
    metrics = system.observability().metrics
    steps: dict[str, dict[str, int]] = {}

    def step(name: str, action) -> None:
        before = metrics.counter_values()
        action()
        delta = metrics.counters_delta(before)
        steps[name] = {key: value for key, value in delta.items() if value}

    for query in QUERIES:
        system.flush_caches()
        step(f"cold {query}", lambda: system.query(query))
    for query in QUERIES:
        step(f"warm {query}", lambda: system.query(query))
    step("tamper", lambda: _query_with_wrong_tags(system))
    step("insert", lambda: system.insert_element(*INSERT))
    return steps


def _query_with_wrong_tags(system: SecureXMLSystem) -> None:
    """Every shipped block fails the owner's tag, on every attempt."""
    tags = system.hosted.block_tags
    saved = dict(tags)
    tags.update((block_id, bytes(32)) for block_id in saved)
    system.flush_caches()
    try:
        system.query(TAMPERED_QUERY)
    except QueryFailedError:
        pass
    else:  # pragma: no cover - the script is wrong, not the code
        raise AssertionError("a query over wrong tags answered")
    finally:
        tags.update(saved)
        system.flush_caches()


if __name__ == "__main__":
    json.dump(run_script(), sys.stdout, indent=2)
    sys.stdout.write("\n")
