"""The client's answer memo: a repeated read answers from what it evaluated.

``Client.finish`` keys the memo by a digest of the verified fragments'
content and the XPath.  A pair's first sight records only that it was
seen, its second keeps detached copies of the answer nodes, and every
later sight hands out fresh clones of those copies.  An entry outlives a
commit while every block its fragments name is live and unstamped.  The
properties:

* three consecutive reads each equal plaintext evaluation, over the axis
  workload on healthcare, XMark-40 and NASA-40, planned and naive;
* whatever a caller does to the nodes it was handed — element, attribute
  or nested answers — the next read's answer is unchanged, and no node it
  returns is one an earlier caller holds;
* a write between reads is visible on the very next read: a write to a
  block an entry names drops the entry, a write elsewhere keeps it (the
  next read is a hit), and a pre-write response replayed in a fresh
  envelope is refused, never answered from the memo;
* positional predicates that share one response answer apart;
* ``flush_caches()`` empties the memo, ``BOUND + 1`` distinct XPaths in
  one epoch evict the oldest entry, the memo never holds more than
  ``BOUND`` entries across commits, and it holds answer copies, never a
  pruned document;
* every read, hits included, crosses the wire: ``Server.answer_wire``
  runs once per read, in process and over a socket.
"""

import pytest

from updates_oracle import write_plaintext
from repro.core.client import canonical_node
from repro.core.integrity import TamperedResponseError
from repro.core.server import Fragment, ServerResponse
from repro.core.epoch_cache import EpochCache
from repro.core.system import QueryFailedError, SecureXMLSystem
from repro.obs import MetricsRegistry
from repro.serving import ServingServer, remote_system
from repro.workloads.axes import AxisWorkload
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints
from repro.netsim.message import encode_response
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
        ((stored, _blocks),) = system.client._answer_memo.live().values()
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
            entry[0] for (_digest, xpath), entry
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
        held = [xpath for _digest, xpath in memo.live()]
        assert held == queries[1:]
        before = metrics.counter_values()
        for _ in range(2):  # first and second sight again
            system.query(queries[0])
        assert memo_counts(before) == (0, 2)


class TestTheMemoOutlivesACommit:
    """What decides an entry's fate at a commit is the owner's record of
    the blocks its fragments name, and what finds it afterwards is the
    content of the fragments that verified."""

    #: Rewrites block 6 (Matt's disease); ``//insurance/@coverage`` ships
    #: blocks 4 and 7 only, ``//treat/disease`` ships 2, 3 and 6.
    WRITE = ("//patient[pname='Matt']/treat/disease", "measles")

    @staticmethod
    def entries(system, xpath):
        return [
            entry for (_digest, held), entry
            in system.client._answer_memo.live().items() if held == xpath
        ]

    @pytest.fixture
    def system(self):
        return SecureXMLSystem.host(
            build_healthcare_database(), healthcare_constraints()
        )

    def test_a_write_to_a_block_an_entry_names_drops_it(self, system):
        query = "//treat/disease"
        for _ in range(2):
            system.query(query)
        ((kept, blocks),) = self.entries(system, query)
        assert isinstance(kept, tuple) and 6 in blocks
        system.update_value(*self.WRITE)
        assert set(system.hosted.block_stamps) == {6}
        assert self.entries(system, query) == []
        before = metrics.counter_values()
        assert sorted(system.query(query).values()) == [
            "diarrhea", "diarrhea", "measles",
        ]
        assert memo_counts(before) == (0, 1)

    def test_a_write_elsewhere_keeps_it_and_the_next_read_hits(self, system):
        query = "//insurance/@coverage"
        want = expected(build_healthcare_database(), query)
        for _ in range(2):
            system.query(query)
        ((_kept, blocks),) = self.entries(system, query)
        assert blocks == {4, 7}
        request = system.client.seal_request(system.client.translate(query))
        system.update_value(*self.WRITE)
        assert len(self.entries(system, query)) == 1
        before = metrics.counter_values()
        assert system.query(query).canonical() == want
        assert memo_counts(before) == (1, 0)
        trace = system.last_trace
        # A fresh exchange at the new epoch, answered without the §6.4 pass.
        assert system.client.translate(query).sealed != request
        assert trace.transfer_bytes > 0
        stages = {span.name for span in trace.span.iter()}
        assert {"seal", "server", "verify", "postprocess"} <= stages
        assert not stages & {"decrypt", "assemble", "evaluate"}

    def test_a_replayed_pre_write_response_in_a_fresh_envelope_is_refused(
        self, system, monkeypatch
    ):
        """A server holding the session keys seals the fragments it
        shipped before the write under the live anchor: the envelope
        verifies, the memo holds nothing under those fragments, and the
        rewritten block fails its tag on every attempt."""
        query = "//treat/disease"
        client = system.client
        old = client.open_response(
            system.server.answer_wire(
                client.seal_request(client.translate(query))
            )
        )
        for _ in range(2):
            assert "leukemia" in system.query(query).values()
        (entry,) = self.entries(system, query)
        assert isinstance(entry[0], tuple) and 6 in entry[1]
        system.update_value(*self.WRITE)
        _, response_key = system.keyring.session_keys()
        monkeypatch.setattr(
            system.server,
            "answer_wire",
            lambda _request: system.hosted.seal(
                response_key, encode_response(old)
            )[0],
        )
        before = metrics.counter_values()
        with pytest.raises(QueryFailedError) as failure:
            system.query(query)
        assert isinstance(failure.value.__cause__, TamperedResponseError)
        attempts = system.retry_policy.max_attempts
        assert memo_counts(before) == (0, attempts)
        assert metrics.counters_delta(before)["integrity_failures"] == attempts

    def test_positional_predicates_sharing_a_response_answer_apart(
        self, system
    ):
        first, second = "//patient[1]/pname", "//patient[2]/pname"
        for round_ in range(2):
            for _ in range(3):
                assert system.query(first).values() == ["Betty"]
                assert system.query(second).values() == ["Matt"]
            one, two = (
                {digest for digest, xpath in system.client._answer_memo.live()
                 if xpath == query}
                for query in (first, second)
            )
            # One response per epoch, two answers to it.  The pre-write
            # entries stay (no block was stamped), under their old content.
            assert one == two and len(one) == round_ + 1
            # A plaintext write to both patients' fragments: new content.
            system.update_value("//patient[pname='Betty']/age", f"3{round_}")

    def test_never_more_than_bound_entries_across_commits(self, system):
        """Entries that survive commits count against the bound too."""
        memo = system.client._answer_memo
        document = build_healthcare_database()
        held = []
        for n in range(EpochCache.BOUND + 44):
            if n % 20 == 0:
                # Plaintext: a new key for every patient fragment, and no
                # block stamped, so no entry leaves at the sweep.
                age = str(30 + n % 7)
                system.update_value("//patient[pname='Betty']/age", age)
                write_plaintext(
                    document, "update_value", "//patient[pname='Betty']/age",
                    age,
                )
            query = f"//patient[age>{n}]/pname"
            assert system.query(query).canonical() == expected(document, query)
            held.append(len(memo.live()))
        assert max(held) == EpochCache.BOUND
        assert system.hosted.epoch == 15


class TestTheKeyIsTheFragmentsContent:
    @staticmethod
    def digest(*fragments):
        return ServerResponse(
            [Fragment(path, xml) for path, xml in fragments]
        ).content_digest()

    def test_equal_fragments_digest_alike_whatever_the_counts(self):
        one = ((("h", 0),), "<a>1</a>")
        assert self.digest(one) == ServerResponse(
            [Fragment(*one)], blocks_shipped=3, candidate_counts={"a": 9}
        ).content_digest()

    @pytest.mark.parametrize("other", [
        [((("h", 0),), "<a>2</a>")],                  # another text
        [((("h", 1),), "<a>1</a>")],                  # another ancestor id
        [((("g", 0),), "<a>1</a>")],                  # another ancestor tag
        [((), "<a>1</a>")],                           # another depth
        [((("h", 0),), "<a>"), ((("h", 0),), "1</a>")],  # another split
        [((("h", 0),), "<a>1</a>")] * 2,              # shipped twice
    ])
    def test_any_change_of_content_is_another_key(self, other):
        assert self.digest(((("h", 0),), "<a>1</a>")) != self.digest(*other)


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
