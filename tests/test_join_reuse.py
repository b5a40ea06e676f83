"""A read after a write re-runs the join only if the write touched it.

The server keeps, with the record of what it last sent for a request
payload, the join that answer came from: the fragment roots, the
candidate counts, and the index keys and value fields the plan reads.  A
write stamps every key whose entries, parent links or plaintext values it
edits (``StructuralIndex.key_stamps``) and every field it re-plans
(``ValueIndex.stamps``); a later evaluation of the payload keeps the
recorded join while none of those is stamped since.  The properties, per
write kind on healthcare and on NASA:

* a read of a tag the write touched runs the join again, and a read of
  tags it left alone does not (``join_reuses`` moves on exactly those);
* either read answers as the plaintext oracle over the written document,
  and as the same system does once its caches are flushed;
* with the access-pattern tier on, the fetch trace is the one recorded
  when no join is kept.
"""

import pytest

from updates_oracle import write_plaintext
from repro.core.client import canonical_node
from repro.core.leakage import TraceRecorder
from repro.core.server import Server
from repro.core.system import SecureXMLSystem
from repro.obs import MetricsRegistry
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.xpath.evaluator import evaluate

metrics = MetricsRegistry()

MATT = "//patient[pname='Matt']"
#: NASA-12 datasets with one author each
D0 = "//dataset[title='Proper Motions catalogue 0']"
D7 = "//dataset[title='Proper Motions catalogue 7']"

#: write kind → (dataset, write, a query reading a tag the write edits,
#: a query reading none)
TABLE = {
    "healthcare plaintext insert": (
        "healthcare",
        ("insert_element", f"{MATT}/treat", "doctor", "Jones"),
        "//treat/doctor",
        "//patient/pname",
    ),
    "healthcare encrypted insert": (
        "healthcare",
        ("insert_element", f"{MATT}/treat", "disease", "flu"),
        "//treat/disease",
        "//patient/pname",
    ),
    "healthcare plaintext update read by a predicate": (
        "healthcare",
        ("update_value", "//patient[pname='Betty']/pname", "Matt"),
        f"{MATT}/age",
        "//treat/doctor",
    ),
    "healthcare encrypted update": (
        "healthcare",
        ("update_value", f"{MATT}/treat/disease", "diarrhea"),
        "//treat[disease='diarrhea']/doctor",
        "//patient/pname",
    ),
    "healthcare plaintext subtree delete": (
        "healthcare",
        ("delete_element", "//patient[pname='Betty']/treat[doctor='Smith']"),
        "//treat/doctor",
        "//patient/pname",
    ),
    "healthcare block delete": (
        "healthcare",
        ("delete_element", f"{MATT}/SSN"),
        "//patient/SSN",
        "//treat/doctor",
    ),
    "nasa plaintext insert": (
        "nasa",
        ("insert_element", D0, "note", "n0"),
        "//dataset/note",
        "//creation/date",
    ),
    "nasa encrypted insert": (
        "nasa",
        ("insert_element", f"{D0}/distribution", "last", "w0"),
        "//distribution/last",
        "//dataset/title",
    ),
    "nasa plaintext update read by a predicate": (
        "nasa",
        ("update_value", f"{D7}/title", "Proper Motions catalogue 0"),
        f"{D0}/altname",
        "//author/last",
    ),
    "nasa encrypted update": (
        "nasa",
        ("update_value", f"{D0}//last", "Sagan"),
        "//author[last='Sagan']/age",
        "//dataset/title",
    ),
    "nasa plaintext subtree delete": (
        "nasa",
        ("delete_element", f"{D0}/distribution"),
        "//distribution/publisher",
        "//author/last",
    ),
    "nasa block delete": (
        "nasa",
        ("delete_element", f"{D0}//initial"),
        "//author/initial",
        "//creation/date",
    ),
}


def document(dataset):
    if dataset == "healthcare":
        return build_healthcare_database(), healthcare_constraints()
    return build_nasa_database(12, seed=13), nasa_constraints()


def oracle(plaintext, query):
    return sorted(canonical_node(node) for node in evaluate(plaintext, query))


def run_row(name, recorder=None):
    """Read both queries, write, read both again: the system, and each
    post-write answer with its ``join_reuses`` delta.  A ``recorder``
    hosts with the access-pattern tier on and records its traces."""
    dataset, (method, *arguments), touched, untouched = TABLE[name]
    source, constraints = document(dataset)
    system = SecureXMLSystem.host(
        source, constraints, scheme="opt", leakage=recorder is not None
    )
    if recorder is not None:
        system.leakage.recorder = recorder
    for query in (touched, untouched):
        system.query(query)
    getattr(system, method)(*arguments)
    after = {}
    for query in (touched, untouched):
        before = metrics.counter_values()
        answer = system.query(query).canonical()
        after[query] = (answer, metrics.counters_delta(before)["join_reuses"])
    return system, after


@pytest.mark.parametrize("name", sorted(TABLE))
def test_only_an_untouched_read_keeps_its_join(name):
    dataset, (method, *arguments), touched, untouched = TABLE[name]
    system, after = run_row(name)
    plaintext, _ = document(dataset)
    write_plaintext(plaintext, method, *arguments)
    assert after[touched][1] == 0, "a read of an edited key kept its join"
    assert after[untouched][1] == 1, "a read of unedited keys ran its join"
    system.flush_caches()
    for query in (touched, untouched):
        expected = oracle(plaintext, query)
        assert after[query][0] == expected, query
        assert system.query(query).canonical() == expected, query


def test_the_table_reads_what_its_writes_change():
    """Each touched read's answer moves with its write, so a kept join
    would show as a wrong answer, not only as a count."""
    for name, (dataset, write, touched, _) in TABLE.items():
        plaintext, _ = document(dataset)
        before = oracle(plaintext, touched)
        write_plaintext(plaintext, *write)
        assert oracle(plaintext, touched) != before, name


@pytest.mark.parametrize("name", sorted(TABLE))
def test_a_kept_join_leaves_the_fetch_trace_as_it_was(name, monkeypatch):
    kept_recorder, rejoined_recorder = TraceRecorder(), TraceRecorder()
    _, kept = run_row(name, recorder=kept_recorder)
    monkeypatch.setattr(Server, "_kept_join", lambda self, sent: None)
    _, rejoined = run_row(name, recorder=rejoined_recorder)
    assert [answer for answer, _ in kept.values()] == [
        answer for answer, _ in rejoined.values()
    ]
    assert [reused for _, reused in kept.values()] == [0, 1]
    assert [reused for _, reused in rejoined.values()] == [0, 0]
    assert kept_recorder.traces()
    assert kept_recorder.encode() == rejoined_recorder.encode()
