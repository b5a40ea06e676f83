"""The client's answer memo: a repeated read answers from what it evaluated.

``Client.finish`` keys the memo by the verified sealed response and the
XPath.  A pair's first sight records only that it was seen, its second
keeps detached copies of the answer nodes, and every later sight hands
out fresh clones of those copies.  The properties:

* three consecutive reads each equal plaintext evaluation, over the axis
  workload on healthcare, XMark-40 and NASA-40, planned and naive;
* whatever a caller does to the nodes it was handed — element, attribute
  or nested answers — the next read's answer is unchanged, and no node it
  returns is one an earlier caller holds;
* a write between reads is visible on the very next read;
* ``flush_caches()`` empties the memo, ``BOUND + 1`` distinct XPaths in
  one epoch evict the oldest entry, and the memo holds answer copies,
  never a pruned document;
* every read, hits included, crosses the wire: ``Server.answer_wire``
  runs once per read, in process and over a socket.
"""

import pytest

from repro.core.client import canonical_node
from repro.core.epoch_cache import EpochCache
from repro.core.system import SecureXMLSystem
from repro.obs import MetricsRegistry
from repro.serving import ServingServer, remote_system
from repro.workloads.axes import AxisWorkload
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints
from repro.xmldb.node import Element, Text
from repro.xpath.evaluator import evaluate

#: Reads of the process counter total.
metrics = MetricsRegistry()

DATASETS = {
    "healthcare": (build_healthcare_database, healthcare_constraints),
    "xmark": (lambda: build_xmark_database(40, seed=11), xmark_constraints),
    "nasa": (lambda: build_nasa_database(40, seed=13), nasa_constraints),
}

#: Element answers, attribute answers and nested element answers.
VANDALISED = ("//patient/treat", "//insurance/@coverage", "//*")


def expected(document, query):
    return sorted(canonical_node(node) for node in evaluate(document, query))


def memo_counts(before):
    """(answer_memo_hits, answer_memo_misses) since ``before``."""
    delta = metrics.counters_delta(before)
    return delta["answer_memo_hits"], delta["answer_memo_misses"]


def every_node(nodes):
    """Each answer node and everything below it, attributes included."""
    for node in nodes:
        for member in node.iter():
            yield member
            yield from getattr(member, "attributes", ())


def vandalise(nodes):
    """Rewrite what a caller was handed: texts, attributes, children."""
    for node in list(every_node(nodes)):
        if isinstance(node, Text):
            node.value = "vandalised"
        elif isinstance(node, Element):
            node.set_attribute("vandal", "1")
            node.append(Element("graffiti"))
            if len(node.children) > 1:
                node.children[0].detach()
        else:  # an attribute
            node.value = "vandalised"


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_three_sights_equal_plaintext(dataset):
    build, constraints = DATASETS[dataset]
    plaintext = build()
    system = SecureXMLSystem.host(build(), constraints(), scheme="opt")
    queries = AxisWorkload(plaintext, seed=0).queries()
    before = metrics.counter_values()
    for query in queries:
        want = expected(plaintext, query)
        for sight in range(3):
            assert system.query(query).canonical() == want, (query, sight)
    hits, misses = memo_counts(before)
    assert (hits, misses) == (len(queries), 2 * len(queries))


def test_three_naive_sights_equal_plaintext(healthcare_doc, healthcare_scs):
    """The naive reads of two XPaths share one response; each pair has
    its own sights."""
    system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
    for query in ("//pname", "//treat[disease='leukemia']/doctor"):
        for _ in range(3):
            assert system.naive_query(query).canonical() == expected(
                healthcare_doc, query
            )
            assert system.last_trace.plan == "naive"


class TestCallersOwnTheirAnswers:
    @pytest.mark.parametrize("query", VANDALISED)
    def test_vandalising_an_answer_changes_no_later_answer(
        self, query, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        want = expected(healthcare_doc, query)
        handed = []
        for _ in range(5):
            answer = system.query(query)
            assert answer.canonical() == want
            held = {id(node) for node in every_node(handed)}
            assert not any(id(node) in held for node in every_node(answer.nodes))
            handed.extend(answer.nodes)
            vandalise(answer.nodes)

    def test_a_hit_hands_out_parentless_copies(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        query = "//*"
        for _ in range(2):
            system.query(query)
        answer = system.query(query)  # the third sight: a hit
        assert all(node.parent is None for node in answer.nodes)
        # A patient and its pname are both answers, yet no two answers
        # share a node: nested answers are independent copies.
        assert {"patient", "pname"} <= {node.tag for node in answer.nodes}
        seen = set()
        for node in answer.nodes:
            members = {id(member) for member in node.iter()}
            assert not members & seen
            seen |= members

    def test_the_memo_holds_answer_copies_not_documents(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        query = "//treat/doctor"
        for _ in range(2):
            answer = system.query(query)
        (stored,) = system.client._answer_memo.live().values()
        assert isinstance(stored, tuple)
        assert [canonical_node(node) for node in stored] == [
            canonical_node(node) for node in answer.nodes
        ]
        assert all(node.parent is None for node in stored)
        # A nested answer is kept as the copy of itself inside its
        # ancestor's: each answered node is copied once.
        for _ in range(2):
            nested = system.query("//*")
        (stored,) = [
            entry for (_blob, xpath), entry
            in system.client._answer_memo.live().items() if xpath == "//*"
        ]
        assert len(stored) == len(nested)
        tops = [node for node in stored if node.parent is None]
        inside = {id(member) for top in tops for member in top.iter()}
        assert 0 < len(tops) < len(stored)
        assert all(id(node) in inside for node in stored)


class TestWritesAndBounds:
    WRITES = (
        ("update_value", ("//patient[pname='Matt']/treat/doctor", "Jones")),
        ("insert_element", ("//patient[pname='Matt']/treat", "doctor",
                            "Grey")),
        ("delete_element", ("//patient[pname='Matt']/treat/doctor",)),
    )

    @pytest.mark.parametrize("method, args", WRITES, ids=lambda w: str(w))
    def test_a_write_is_visible_on_the_very_next_read(
        self, method, args, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            build_healthcare_database(), healthcare_scs
        )
        reference = SecureXMLSystem.host(
            build_healthcare_database(), healthcare_scs
        )
        query = "//treat/doctor"
        for _ in range(3):
            assert system.query(query).canonical() == expected(
                healthcare_doc, query
            )
        getattr(system, method)(*args)
        getattr(reference, method)(*args)
        reference.flush_caches()
        want = reference.query(query).canonical()
        assert want != expected(healthcare_doc, query)
        for _ in range(3):
            assert system.query(query).canonical() == want

    def test_flush_caches_empties_the_memo(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        for _ in range(3):
            system.query("//SSN")
        memo = system.client._answer_memo
        assert len(memo) == 1
        system.flush_caches()
        assert len(memo) == 0
        before = metrics.counter_values()
        system.query("//SSN")
        assert memo_counts(before) == (0, 1)

    def test_bound_plus_one_xpaths_evict_the_oldest(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        memo = system.client._answer_memo
        queries = [
            f"//patient[age>{bar}]/pname"
            for bar in range(EpochCache.BOUND + 1)
        ]
        epoch = system.hosted.epoch
        for query in queries:
            system.query(query)
        assert system.hosted.epoch == epoch
        held = [xpath for _blob, xpath in memo.live()]
        assert held == queries[1:]
        before = metrics.counter_values()
        for _ in range(2):  # first and second sight again
            system.query(queries[0])
        assert memo_counts(before) == (0, 2)


class TestEveryReadCrossesTheWire:
    def test_answer_wire_runs_once_per_read_hits_included(
        self, healthcare_doc, healthcare_scs, monkeypatch
    ):
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        answer_wire, calls = system.server.answer_wire, []

        def counting(request):
            calls.append(request)
            return answer_wire(request)

        monkeypatch.setattr(system.server, "answer_wire", counting)
        query = "//patient[age>36]/pname"
        before = metrics.counter_values()
        for _ in range(5):
            assert system.query(query).values() == ["Matt"]
            trace = system.last_trace
            assert trace.fragments_returned == 1
            assert trace.transfer_bytes > 0
        assert len(calls) == 5
        assert memo_counts(before) == (3, 2)
        # A hit's trace: the whole exchange, and one postprocess span
        # holding the clones.
        stages = {span.name for span in trace.span.iter()}
        assert {"seal", "server", "verify", "postprocess"} <= stages
        assert not stages & {"decrypt", "assemble", "evaluate"}

    def test_a_remote_handle_hits_after_its_own_exchange(
        self, healthcare_doc, healthcare_scs
    ):
        local = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        door = ServingServer(max_inflight=4)
        door.register_tenant("t0", local)
        address = door.start()
        try:
            remote = remote_system(local, address, "t0")
            connection = remote.server
            answer_wire, calls = connection.answer_wire, []

            def counting(request):
                calls.append(request)
                return answer_wire(request)

            connection.answer_wire = counting
            try:
                before = metrics.counter_values()
                query = "//insurance/@coverage"
                for _ in range(3):
                    assert remote.query(query).canonical() == expected(
                        healthcare_doc, query
                    )
                assert len(calls) == 3
                assert memo_counts(before) == (1, 2)
            finally:
                remote.close()
        finally:
            door.stop()
