"""Shared fixtures for the experiment benchmarks.

Hosting a database is expensive relative to a query, so the hosted systems
are built once per session and shared.  Sizes are chosen so the whole
benchmark suite reproduces every figure in a few minutes on a laptop; the
generators take explicit scale parameters if larger runs are wanted.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.core.system import SecureXMLSystem
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.queries import QueryWorkload
from repro.workloads.xmark import build_xmark_database, xmark_constraints

SCHEMES = ("top", "sub", "app", "opt")

#: scale knobs (override with environment variables for bigger runs)
XMARK_PERSONS = int(os.environ.get("REPRO_XMARK_PERSONS", "100"))
NASA_DATASETS = int(os.environ.get("REPRO_NASA_DATASETS", "70"))
QUERIES_PER_CLASS = int(os.environ.get("REPRO_QUERIES_PER_CLASS", "6"))
#: measurement trials per benchmark point — the paper's protocol uses 5
#: (trimmed mean); CI sets REPRO_BENCH_TRIALS=1 to run the suite fast
BENCH_TRIALS = max(1, int(os.environ.get("REPRO_BENCH_TRIALS", "5")))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Reference code a benchmark shares with tier-1 (``stack_join``) lives in
#: ``tests/``.  Pytest puts only this directory on ``sys.path``, so the
#: tests directory goes after it: a benchmark imports such a module by its
#: bare name, as a test does, and this directory's ``conftest`` still wins.
TESTS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests")
if TESTS_DIR not in sys.path:
    sys.path.append(TESTS_DIR)


def write_result(name: str, text: str) -> None:
    """Persist a rendered experiment table under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print()
    print(text)


@pytest.fixture(scope="session")
def bench_trials() -> int:
    """Trials per measurement (REPRO_BENCH_TRIALS, default 5)."""
    return BENCH_TRIALS


@pytest.fixture(autouse=True)
def quiesce_gc():
    """Keep collector pauses out of the measured sections.

    Same rationale as ``timeit``'s default ``gc.disable()``: a cyclic-GC
    pass triggered mid-measurement charges an unrelated scheme with a
    multi-millisecond pause and flips the tight shape assertions.
    Freezing (rather than disabling) keeps collection alive for garbage
    created during the test while taking the long-lived hosted systems
    and caches out of every scan.
    """
    import gc

    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture(scope="session")
def xmark_doc():
    return build_xmark_database(person_count=XMARK_PERSONS, seed=41)


@pytest.fixture(scope="session")
def nasa_doc():
    return build_nasa_database(dataset_count=NASA_DATASETS, seed=42)


@pytest.fixture(scope="session")
def xmark_systems(xmark_doc):
    constraints = xmark_constraints()
    return {
        kind: SecureXMLSystem.host(xmark_doc, constraints, scheme=kind)
        for kind in SCHEMES
    }


@pytest.fixture(scope="session")
def nasa_systems(nasa_doc):
    constraints = nasa_constraints()
    return {
        kind: SecureXMLSystem.host(nasa_doc, constraints, scheme=kind)
        for kind in SCHEMES
    }


@pytest.fixture(scope="session")
def xmark_queries(xmark_doc):
    return QueryWorkload(
        xmark_doc, seed=51, per_class=QUERIES_PER_CLASS
    ).by_class()


@pytest.fixture(scope="session")
def nasa_queries(nasa_doc):
    return QueryWorkload(
        nasa_doc, seed=52, per_class=QUERIES_PER_CLASS
    ).by_class()
