"""Regression tests for bugs found during development.

Each test documents a concrete failure mode that once existed, so the
exact scenario stays covered forever.
"""

import pytest

from repro.core.client import Client, canonical_node
from repro.core.constraints import parse_constraints
from repro.core.integrity import RollbackDetectedError, TamperedResponseError
from repro.core.server import Fragment, ServerResponse
from repro.core.system import QueryFailedError, SecureXMLSystem
from repro.netsim.message import decode_response, encode_response
from repro.serving import ServingServer, remote_system
from repro.xmldb.builder import TreeBuilder
from repro.xpath.evaluator import evaluate


class TestUnknownLiteralRangeRegression:
    """Range predicates with literals *between* domain values.

    Bug: the original Figure 7(a) translation anchored range bounds on the
    literal's own (interpolated) position.  OPESS displacements reach
    almost a full value-gap δ, so a chunk of a *matching* value could be
    displaced past the literal's position and fall outside the translated
    range — the server then dropped its block entirely and the final
    answer silently lost rows.  Found by
    ``test_property_opess.TestPredicateOracle`` with histogram
    {'0': 2, '10': 5} and the predicate ``< 11``.  First fixed by
    anchoring unknown-literal bounds on the neighbouring domain values;
    that rule still placed a literal in the field's own order, so a word
    on a numeric field (``'abc'``, ``''``) or another spelling of a value
    (``'10.0'``, ``'010'``; ``'0276543'`` for healthcare's SSN) lost rows
    the same way.  Now the owner tests every distinct value with the
    evaluator's comparator and sends one range per run of matching values.
    """

    def _build(self):
        builder = TreeBuilder("people")
        ages = ["0", "0", "10", "10", "10", "10", "10"]
        for index, age in enumerate(ages):
            with builder.element("person"):
                builder.leaf("name", f"p{index}")
                builder.leaf("age", age)
        document = builder.document()
        constraints = parse_constraints(["//person:(/name, /age)"])
        return document, constraints

    def test_less_than_between_values(self):
        document, constraints = self._build()
        system = SecureXMLSystem.host(document, constraints, scheme="opt")
        # '11' is not a domain value; every person matches age < 11.
        query = "//person[age<11]/name"
        expected = sorted(
            canonical_node(n) for n in evaluate(document, query)
        )
        assert len(expected) == 7
        assert system.query(query).canonical() == expected

    def test_all_operators_between_values(self):
        document, constraints = self._build()
        system = SecureXMLSystem.host(document, constraints, scheme="opt")
        for literal in (
            "-1", "5", "11", "'276543.0'", "'0276543'", "'abc'", "''",
            "'10.0'", "'010'",
        ):
            for op in ("<", "<=", ">", ">=", "=", "!="):
                query = f"//person[age{op}{literal}]/name"
                expected = sorted(
                    canonical_node(n) for n in evaluate(document, query)
                )
                assert system.query(query).canonical() == expected, query


class TestCountInternalNodesRegression:
    """COUNT must count nodes, not leaf values.

    Bug: ``aggregate(query, "count")`` folded over ``answer.values()``,
    which skips internal elements (they have no text value), so counting
    ``//author`` returned 0.  Fixed to count answer nodes.
    """

    def test_count_internal_elements(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        assert system.aggregate("//treat", "count") == 3
        assert system.aggregate("//patient", "count") == 2


class TestTableOrderRegression:
    """DSI table lists must be sorted by interval for the stack joins.

    Bug: index construction walked the tree with an explicit stack, so
    per-tag entry lists came out in a traversal order that is not
    document order; ``stack_tree_desc`` silently missed pairs.  Fixed by
    sorting each table list at build time.
    """

    def test_lookup_lists_sorted(self, nasa_doc, nasa_scs):
        system = SecureXMLSystem.host(nasa_doc, nasa_scs, scheme="opt")
        for entries in system.hosted.structural_index.table.values():
            lows = [entry.interval.low for entry in entries]
            assert lows == sorted(lows)


class TestFragmentOrderAfterInsertRegression:
    """Fragments ship in document order, not node-id order.

    Bug: the server sorted fragment roots by hosted node id and the client
    grafts fragments onto its skeleton in arrival order.  An insert
    numbers its node after every existing one, so an SSN inserted into
    Matt's ``treat`` arrived after Matt's ``age`` and its skeleton
    ``treat`` was grafted behind the ``age``: ``//age/preceding::SSN``
    silently lost it.  Found by ``test_property_updates`` (healthcare,
    seed 2332944).  Fixed by ordering roots by DSI interval.
    """

    def test_preceding_sees_an_inserted_node(
        self, healthcare_doc, healthcare_scs
    ):
        from repro.workloads.healthcare import build_healthcare_database
        from repro.xmldb.node import Element, Text

        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        system.insert_element("//patient[pname='Matt']/treat", "SSN", "w7")
        oracle = build_healthcare_database()
        (treat,) = evaluate(oracle, "//patient[pname='Matt']/treat")
        ssn = Element("SSN")
        ssn.append(Text("w7"))
        treat.append(ssn)
        query = "//age/preceding::SSN"
        expected = sorted(canonical_node(n) for n in evaluate(oracle, query))
        assert "<SSN>w7</SSN>" in expected
        assert system.query(query).canonical() == expected


class TestPlanOutlivesItsEpochOnTheServedPathRegression:
    """A request is valid at exactly one epoch on the served path too.

    Bug: the front door accepted a request sealed up to 16 commits ago,
    re-verified against that epoch's recorded root.  The plan inside it
    carries its epoch's OPESS ranges, and the server evaluated them over
    the newer value index.  Deleting Betty's SSN re-plans the SSN field,
    so ``//patient[SSN='276543']/pname`` sealed before the delete and
    answered after it selected nothing: it verified and was ``[]``, not
    ``['Matt']``.  Fixed by deleting the window: a stale request is
    refused, typed, and the client re-translates and re-seals.
    """

    QUERY = "//patient[SSN='276543']/pname"
    DELETE = "//patient[pname='Betty']/SSN"

    def test_session_refuses_a_request_sealed_before_a_commit(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        session = ServingServer().register_tenant("t0", system)
        client = Client(system.keyring, system.hosted)
        blob = client.seal_request(client.translate(self.QUERY))
        system.delete_element(self.DELETE)
        with pytest.raises(RollbackDetectedError):
            session.query(blob)

    def test_remote_query_across_the_delete_is_exact(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        with ServingServer() as server:
            server.register_tenant("t0", system)
            remote = remote_system(system, server.address, "t0")
            try:
                send, sent = remote.server.answer_wire, []

                def commit_then_send(blob):
                    if not sent:  # another handle's write, mid-flight
                        system.delete_element(self.DELETE)
                    sent.append(blob)
                    return send(blob)

                remote.server.answer_wire = commit_then_send
                assert remote.query(self.QUERY).values() == ["Matt"]
                assert remote.last_trace.freshness_failures == 1
            finally:
                remote.close()


class TestIdenticalCommandsNeedNoNonceRegression:
    """Two identical update commands both land, with no nonce.

    The replay memory keyed on each sealed blob, so clients bound a
    random nonce into every command to keep two identical ones distinct.
    With one valid epoch per seal, the first command's commit makes the
    second's seal stale: the remote update re-seals it at the new anchor
    and it lands.
    """

    def test_a_raced_identical_command_is_resealed_and_lands(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        probe = "//patient[pname='Betty']/SSN"
        with ServingServer() as server:
            server.register_tenant("t0", system)
            a = remote_system(system, server.address, "t0")
            b = remote_system(system, server.address, "t0")
            try:
                connection, blobs = b._connection, []
                call = connection.call

                def racing_call(op, blob):
                    if not blobs:  # a's identical command lands first
                        a.update_value(probe, "555000")
                    blobs.append(blob)
                    return call(op, blob)

                connection.call = racing_call
                epoch = system.hosted.epoch
                b.update_value(probe, "555000")
                assert system.hosted.epoch == epoch + 2
                assert len(blobs) == 2 and blobs[0] != blobs[1]
                assert system.query(probe).values() == ["555000"]
            finally:
                a.close()
                b.close()


class TestWriteInsideALargerBlockRegression:
    """A write to an encrypted node that is not its block's root is
    refused before any state moves.

    Bug: on healthcare ``sub`` Matt's whole patient subtree is one block,
    and ``update_value("//patient[pname='Matt']/SSN", "111111")`` passed
    its one check (a single-member entry): it re-encrypted the block as
    one ``<SSN>`` leaf, and ``//patient/pname`` answered ``['Betty']``.
    A delete of the same node removed the whole patient.
    """

    TARGET = "//patient[pname='Matt']/SSN"
    WRITES = (("update_value", TARGET, "111111"), ("delete_element", TARGET))

    @staticmethod
    def state(system):
        hosted = system.hosted
        return (
            hosted.epoch,
            dict(hosted.blocks),
            dict(hosted.block_stamps),
            {name: list(values) for name, values in hosted.occurrences.items()},
            len(hosted.structural_index.entries),
        )

    def check_refused(self, system, writer):
        from repro.core.updates import UpdateError

        before = self.state(system)
        for method, *arguments in self.WRITES:
            with pytest.raises(UpdateError, match="larger encryption block"):
                getattr(writer, method)(*arguments)
            assert self.state(system) == before
        assert writer.query("//patient/pname").values() == ["Betty", "Matt"]
        assert writer.query(self.TARGET).values() == ["276543"]

    def test_refused_in_process(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="sub"
        )
        self.check_refused(system, system)

    def test_refused_over_the_socket(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="sub"
        )
        with ServingServer() as server:
            server.register_tenant("t0", system)
            remote = remote_system(system, server.address, "t0")
            try:
                self.check_refused(system, remote)
            finally:
                remote.close()

    def test_a_block_root_is_still_written(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        system.update_value(self.TARGET, "111111")
        assert system.query(self.TARGET).values() == ["111111"]
        system.delete_element(self.TARGET)
        assert system.query("//patient/pname").values() == ["Betty", "Matt"]
        assert len(system.query(self.TARGET)) == 0


class TestPlanSealedAtAnotherEpochRegression:
    """A plan is sealed at the anchor it was made at.

    Bug: the client translated a query at one epoch and sealed it at
    whatever anchor stood when ``seal_request`` ran, keeping the sealed
    bytes under the XPath for the rest of the new epoch.  A commit in
    between — here a write that re-plans the ``disease`` field — got the
    old epoch's OPESS ranges sealed as fresh: the server evaluated them
    over the new value index, and every read of the XPath until the next
    commit answered ``[]`` instead of ``['Matt']``.  Fixed by sealing each
    plan at its own anchor: the outdated plan is refused for freshness and
    the retry re-translates.
    """

    QUERY = "//patient[.//disease = 'leukemia']/pname"
    WRITE = ("//patient[pname='Betty']/treat[doctor='Smith']/disease", "asthma")

    def test_a_commit_after_translate_is_retried_in_process(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        translate, committed = system.client.translate, []

        def translate_then_commit(query):
            plan = translate(query)
            if not committed:  # another handle's write, mid-read
                committed.append(True)
                system.update_value(*self.WRITE)
            return plan

        system.client.translate = translate_then_commit
        epoch = system.hosted.epoch
        assert system.query(self.QUERY).values() == ["Matt"]
        assert system.last_trace.freshness_failures == 1
        assert system.last_trace.attempts == 2
        for _ in range(3):
            assert system.query(self.QUERY).values() == ["Matt"]
            assert system.last_trace.freshness_failures == 0
        assert system.hosted.epoch == epoch + 1

    def test_a_plan_kept_across_a_commit_is_made_anew_when_resealed(
        self, healthcare_doc, healthcare_scs
    ):
        """A caller that re-seals one plan on each attempt (as a staged
        replay does) gets a request the server accepts, not the dead one."""
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        client = system.client
        plan = client.translate(self.QUERY)
        stale = client.seal_request(plan)
        system.update_value(*self.WRITE)
        with pytest.raises(RollbackDetectedError):
            system.server.answer_wire(stale)
        fresh = client.seal_request(plan)
        assert fresh != stale
        response = client.open_response(system.server.answer_wire(fresh))
        pruned = client.assemble(client.decrypt_fragments(response))
        assert client.post_process(self.QUERY, pruned).values() == ["Matt"]

    def test_a_commit_after_translate_is_retried_on_the_served_path(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        with ServingServer() as server:
            server.register_tenant("t0", system)
            a = remote_system(system, server.address, "t0")
            b = remote_system(system, server.address, "t0")
            try:
                translate, committed = a.client.translate, []

                def translate_then_commit(query):
                    plan = translate(query)
                    if not committed:  # b's write lands mid-read
                        committed.append(True)
                        b.update_value(*self.WRITE)
                    return plan

                a.client.translate = translate_then_commit
                epoch = system.hosted.epoch
                assert a.query(self.QUERY).values() == ["Matt"]
                assert a.last_trace.freshness_failures == 1
                assert a.last_trace.attempts == 2
                for _ in range(3):
                    assert a.query(self.QUERY).values() == ["Matt"]
                    assert a.last_trace.freshness_failures == 0
                assert b.query(self.QUERY).values() == ["Matt"]
                assert system.hosted.epoch == epoch + 1
            finally:
                a.close()
                b.close()


class TestUnpairedSurrogateRegression:
    """A response whose text holds an unpaired surrogate escape fails
    typed.

    Bug: JSON lets ``\\ud800`` stand alone, and it decodes to a ``str``
    that UTF-8 cannot carry.  A server holding the session keys could
    seal such a fragment text, and the client's byte count raised a raw
    ``UnicodeEncodeError`` out of ``system.query``.  Fixed in the codec:
    a message that decodes to an unencodable string is a
    ``MessageDecodeError``, so the read is retried and fails typed.
    """

    def test_the_query_fails_typed(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        _, response_key = system.keyring.session_keys()
        for path, text in (
            ((("hospital", 0),), "<patient><pname>\ud800</pname></patient>"),
            ((("hospital\udfff", 0),), "<patient/>"),
        ):
            forged = encode_response(ServerResponse([Fragment(path, text)]))
            system.server.answer_wire = lambda _request, forged=forged: (
                system.hosted.seal(response_key, forged)[0]
            )
            with pytest.raises(QueryFailedError) as failure:
                system.query("//patient/pname")
            assert isinstance(failure.value.__cause__, TamperedResponseError)

    def test_a_paired_surrogate_escape_still_decodes(self):
        response = ServerResponse([Fragment((("h😀", 1),), "<t>😀</t>")])
        payload = encode_response(response)
        assert b"\\ud83d\\ude00" in payload
        assert decode_response(payload) == response
