"""End-to-end tests for the SecureXMLSystem pipeline (Figure 1).

The central contract is the paper's correctness equation
``Q(δ(Qs(η(D)))) = Q(D)``: the secure pipeline must return exactly the
answer the plaintext database gives.
"""

import pytest

from repro.core.client import canonical_node
from repro.core.system import SecureXMLSystem
from repro.workloads.healthcare import EXAMPLE_QUERY
from repro.xpath.evaluator import evaluate

QUERIES = [
    EXAMPLE_QUERY,
    "//patient[pname='Betty']//disease",
    "//patient[pname='Betty'][SSN='763895']",
    "//treat[disease='leukemia']/doctor",
    "//treat[disease='diarrhea']/doctor",
    "/hospital/patient/age",
    "//SSN",
    "//insurance/policy#",
    "//insurance//@coverage",
    "//patient[age>36]/pname",
    "//patient[age<36]/pname",
    "//patient[treat]/pname",
    "/hospital/patient/treat/disease",
    "//patient/*",
    "//nothing",
    "/wrongroot/patient",
]


def truth(document, query):
    return sorted(canonical_node(n) for n in evaluate(document, query))


@pytest.fixture(params=["opt", "app", "sub", "top"])
def system(request, healthcare_doc, healthcare_scs):
    return SecureXMLSystem.host(
        healthcare_doc, healthcare_scs, scheme=request.param
    )


class TestCorrectness:
    @pytest.mark.parametrize("query", QUERIES)
    def test_exactness_equation(self, system, healthcare_doc, query):
        answer = system.query(query)
        assert answer.canonical() == truth(healthcare_doc, query)

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    @pytest.mark.parametrize("literal", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_literal_on_encrypted_numbers(
        self, system, healthcare_doc, op, literal
    ):
        # float() parses these: the key ranges keep what the rule keeps.
        query = f"//patient[SSN {op} '{literal}']/pname"
        answer = system.query(query)
        assert answer.canonical() == truth(healthcare_doc, query)

    def test_naive_query_also_exact(self, system, healthcare_doc):
        answer = system.naive_query(EXAMPLE_QUERY)
        assert answer.canonical() == truth(healthcare_doc, EXAMPLE_QUERY)
        assert system.last_trace.plan == "naive"

    def test_positional_query_served_by_axis_engine(
        self, system, healthcare_doc
    ):
        # Positional steps used to force the naive fallback; the axis
        # engine now ships the complete candidate list server-side and
        # the client indexes into it.
        query = "/hospital/patient[1]/pname"
        answer = system.query(query)
        assert system.last_trace.plan == "axis"
        assert answer.canonical() == truth(healthcare_doc, query)

    def test_sibling_axis_served_by_axis_engine(self, system, healthcare_doc):
        query = "//disease/following-sibling::doctor"
        answer = system.query(query)
        assert system.last_trace.plan == "axis"
        assert answer.canonical() == truth(healthcare_doc, query)

    def test_answer_values_helper(self, system):
        answer = system.query("//SSN")
        assert sorted(answer.values()) == ["276543", "763895"]


class TestTraces:
    def test_trace_stages_populated(self, system):
        system.query(EXAMPLE_QUERY)
        trace = system.last_trace
        assert trace.server_s >= 0
        assert trace.decrypt_client_s >= 0
        assert trace.transfer_bytes > 0
        assert trace.total_s > 0
        assert trace.answer_count == 2

    def test_trace_as_row_keys(self, system):
        system.query("//SSN")
        row = system.last_trace.as_row()
        assert {"t_server", "t_decrypt", "t_post", "bytes"} <= set(row)

    def test_channel_accounts_both_directions(self, system):
        system.query("//SSN")
        transfers = [
            s.annotations for s in system.last_trace.span.iter()
            if s.name == "transfer"
        ]
        assert [t["direction"] for t in transfers] == [
            "client->server", "server->client"
        ]
        assert all(t["bytes"] > 0 for t in transfers)

    def test_hosting_trace(self, system):
        trace = system.hosting_trace
        assert trace.block_count >= 1
        assert trace.hosted_bytes > 0
        assert trace.encrypt_s > 0
        assert trace.index_entries > 0


class TestSchemeBehaviour:
    def test_top_ships_whole_database(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="top"
        )
        system.query("//SSN")
        assert system.last_trace.blocks_returned == 1
        naive_bytes = system.last_trace.transfer_bytes
        # top == naive: the single block is the whole database.
        system.naive_query("//SSN")
        assert system.last_trace.transfer_bytes >= naive_bytes

    def test_opt_ships_less_than_naive(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        system.query("//SSN")
        targeted = system.last_trace.transfer_bytes
        system.naive_query("//SSN")
        assert targeted < system.last_trace.transfer_bytes

    def test_prebuilt_scheme_accepted(self, healthcare_doc, healthcare_scs):
        from repro.core.scheme import opt_scheme

        scheme = opt_scheme(healthcare_doc, healthcare_scs)
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme=scheme
        )
        assert system.scheme is scheme

    def test_custom_master_key(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc,
            healthcare_scs,
            scheme="opt",
            master_key=b"another-master-key-here!",
        )
        answer = system.query("//SSN")
        assert sorted(answer.values()) == ["276543", "763895"]

    def test_repeated_queries_stable(self, system, healthcare_doc):
        for _ in range(3):
            answer = system.query(EXAMPLE_QUERY)
            assert answer.canonical() == truth(healthcare_doc, EXAMPLE_QUERY)
