"""``Server._fragment_roots`` keeps the rule it always had.

The server ships each matched node once, drops any node nested inside
another shipped node, and orders what is left by the lowest DSI interval
that mapped to it.  The rule below is the one it was first written as —
every node's whole ancestor chain tested against the shipped set — kept
here as the oracle for the form that walks each distinct ancestor once.
The property: the same roots, as the same objects, in the same order,
for every axis-workload shape on healthcare, XMark-200 and NASA-200,
and for every index entry at once and seeded samples of them, before and
after inserts and deletes.
"""

import random

import pytest

from repro.core.system import SecureXMLSystem
from repro.workloads.axes import AxisWorkload
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints


def oracle_roots(server, entries):
    """Deduplicate, drop every node with a shipped ancestor, sort by low."""
    nodes, lows = {}, {}
    for entry in entries:
        node = server._node_for(entry)
        if node is not None:
            key = id(node)
            nodes[key] = node
            low = entry.interval.low
            lows[key] = min(lows.get(key, low), low)
    kept = [
        node for node in nodes.values()
        if not any(id(ancestor) in nodes for ancestor in node.ancestors())
    ]
    kept.sort(key=lambda node: lows[id(node)])
    return kept, len(nodes)


def nasa_title():
    document = build_nasa_database(200, seed=13)
    return next(
        child.text_value()
        for element in document.elements() if element.tag == "dataset"
        for child in element.children if getattr(child, "tag", "") == "title"
    )


def nasa_writes(dataset):
    return [
        ("insert_element", (f"{dataset}/distribution", "last", "w0")),
        ("insert_element", (dataset, "note", "n0")),
        ("delete_element", (f"{dataset}/note",)),
    ]


#: name → (document factory, constraints, writes: (method, args))
DATASETS = {
    "healthcare": (
        build_healthcare_database,
        healthcare_constraints,
        lambda: [
            ("insert_element", ("//patient[pname='Matt']/treat", "doctor",
                                "Grey")),
            ("insert_element", ("//patient[pname='Betty']", "note", "n1")),
            ("delete_element", ("//patient[pname='Betty']/note",)),
        ],
    ),
    "xmark": (
        lambda: build_xmark_database(200, seed=11),
        xmark_constraints,
        lambda: [
            ("insert_element", ("//person[@id='person5']", "creditcard",
                                "5555 6666 7777 8888")),
            ("insert_element", ("//person[@id='person5']", "note", "plain")),
            ("delete_element", ("//person[@id='person7']/name",)),
            ("delete_element", ("//person[@id='person9']",)),
        ],
    ),
    "nasa": (
        lambda: build_nasa_database(200, seed=13),
        nasa_constraints,
        lambda: nasa_writes(f"//dataset[title='{nasa_title()}']"),
    ),
}


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_one_pass_keeps_the_oracle_roots_across_writes(dataset):
    build, constraints, writes = DATASETS[dataset]
    system = SecureXMLSystem.host(build(), constraints(), scheme="opt")
    server, client = system.server, system.client
    queries = AxisWorkload(build(), seed=0).queries()
    dropped = 0
    for written in [None, *writes()]:
        if written is not None:
            method, args = written
            getattr(system, method)(*args)
        for query in queries:
            entries = server._match(client.translate(query)).ship_entries
            want, shipped = oracle_roots(server, entries)
            got = server._fragment_roots(entries)
            assert len(got) == len(want), query
            assert all(map(lambda a, b: a is b, got, want)), query
            dropped += shipped - len(want)
        # Beside the shapes: every index entry at once, and seeded
        # samples of them — nested at every depth, in no document order.
        everything = server._structure.all_entries()
        rng = random.Random(len(everything))
        for entries in [everything] + [
            rng.sample(everything, len(everything) // k) for k in (2, 3, 5, 9)
        ]:
            want, _ = oracle_roots(server, entries)
            got = server._fragment_roots(entries)
            assert len(got) == len(want)
            assert all(map(lambda a, b: a is b, got, want))
    # The sweep saw nested nodes to drop, not only flat ones.
    assert dropped > 0
