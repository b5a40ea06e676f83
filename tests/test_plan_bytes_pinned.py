"""What one lowering sends and gets back is pinned, byte for byte.

The axis compiler plans every query.  Before it did, the paper's downward
fragment had a twig compiler of its own with a single-ship-node rule;
``fixtures/plan_bytes_pinned.json`` holds digests taken under that
two-compiler planner, for every query of three corpora (the
``AxisWorkload`` and ``QueryWorkload`` sets at seeds 1 and 7, plus the
benchmark read sets on XMark and NASA and hand-picked healthcare shapes):

``request``
    Queries the twig compiler accepted: SHA-256 of ``encode_query`` — the
    ship flags included, so the pruned ship set must name exactly the
    old single ship node.
``fragments``
    Every other query: SHA-256 of the fragments the server returns — the
    pruned ship set may flag fewer nodes, never ship different bytes.
"""

import hashlib
import json
import os

import pytest

from repro.core.system import SecureXMLSystem
from repro.netsim.message import decode_query, encode_query
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints

PINS_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "plan_bytes_pinned.json"
)

CORPORA = {
    "healthcare": lambda: (
        build_healthcare_database(),
        healthcare_constraints(),
    ),
    "xmark-40": lambda: (build_xmark_database(40), xmark_constraints()),
    "nasa-40": lambda: (build_nasa_database(40), nasa_constraints()),
}


def fragments_digest(response) -> str:
    digest = hashlib.sha256()
    for fragment in response.fragments:
        digest.update(
            json.dumps([fragment.ancestor_path, fragment.xml]).encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_plan_bytes_unchanged(corpus):
    with open(PINS_PATH, encoding="utf-8") as handle:
        pins = json.load(handle)[corpus]
    # Both sides stay populated: an emptied fixture would pin nothing.
    assert len(pins["request"]) >= 30 and len(pins["fragments"]) >= 50
    document, constraints = CORPORA[corpus]()
    system = SecureXMLSystem.host(document, constraints, scheme="opt")
    moved = []
    try:
        for query, pinned in pins["request"].items():
            translated = system.client.translate(query)
            actual = hashlib.sha256(encode_query(translated)).hexdigest()
            if actual != pinned:
                moved.append(("request", query))
        for query, pinned in pins["fragments"].items():
            translated = system.client.translate(query)
            response = system.server.answer(
                decode_query(encode_query(translated))
            )
            if fragments_digest(response) != pinned:
                moved.append(("fragments", query))
    finally:
        system.close()
    assert moved == []

