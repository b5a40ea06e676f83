"""Differential sweep for the axis engine: all thirteen axes, exactly.

The contract is the same correctness equation the downward fragment has
always satisfied — ``Q(δ(Qs(η(D)))) = Q(D)`` — extended to every axis
and every positional-predicate shape, on three corpora, and under a
≥20% fault sweep where the outcome must be the exact answer or a typed
error.

None of these queries may touch the naive protocol: the planner must
pick an axis or residual server-side plan for each, and every trace
records that plan tier.
"""

import pytest

from repro.core.client import canonical_node
from repro.core.system import QueryFailedError, SecureXMLSystem
from fault_channel import FaultPolicy, FaultyChannel
from repro.workloads.axes import ALL_AXES, AxisWorkload
from repro.xpath.evaluator import evaluate

#: Hand-picked shapes the generator's grammar does not reach: predicate
#: branches over reverse/order axes, stacked predicates, multi-value
#: constraints, degenerate paths.
EXTRA_QUERIES = (
    "//patient[pname='Betty']//disease[last()]",
    "//disease[../doctor='Smith']",
    "//treat[following-sibling::insurance]/disease",
    "//doctor[ancestor::patient[age>36]]",
    "//patient/treat[2]/doctor",
    "//treat[disease='leukemia'][doctor='Smith']",
    "//patient[age>30][age<40]/pname",
    "/hospital/patient[1]/following-sibling::patient/pname",
    "//pname/../age",
    "//hospital/ancestor-or-self::hospital",
    "//nosuchtag/following::doctor",
    "/hospital//insurance/@coverage",
)


def truth(document, query):
    return sorted(canonical_node(n) for n in evaluate(document, query))


def axis_queries(document, seed=7):
    return AxisWorkload(document, seed=seed).queries()


def assert_exact_and_served(system, document, queries):
    """Every query answers exactly and through a server-side plan."""
    for query in queries:
        answer = system.query(query)
        assert answer.canonical() == truth(document, query), query
        trace = system.last_trace
        assert not trace.naive, query
        assert trace.plan in ("axis", "residual"), (
            query,
            trace.plan,
        )


class TestGeneratorCoversEveryAxis:
    def test_all_thirteen_axes_emitted(self, healthcare_doc):
        by_axis = AxisWorkload(healthcare_doc).by_axis()
        assert set(ALL_AXES) <= set(by_axis)
        for axis in ALL_AXES:
            assert by_axis[axis], axis
        assert by_axis["positional"]


class TestHealthcareMatrix:
    """Every generated and hand-picked shape on the Figure 2 database."""

    def test_serial(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        queries = axis_queries(healthcare_doc) + list(EXTRA_QUERIES)
        assert_exact_and_served(system, healthcare_doc, queries)


class TestOtherCorpora:
    """Spot configurations on the synthetic NASA and XMark databases."""

    def test_nasa(self, nasa_doc, nasa_scs):
        system = SecureXMLSystem.host(nasa_doc, nasa_scs, scheme="opt")
        assert_exact_and_served(system, nasa_doc, axis_queries(nasa_doc))

    def test_xmark(self, xmark_doc, xmark_scs):
        system = SecureXMLSystem.host(xmark_doc, xmark_scs, scheme="opt")
        assert_exact_and_served(system, xmark_doc, axis_queries(xmark_doc))


class TestFaultSweep:
    """≥20% fault rates: exact answer or typed error, never wrong."""

    @pytest.mark.parametrize(
        "rates",
        (
            {"drop": 0.25},
            {"corrupt": 0.25},
            {"drop": 0.2, "corrupt": 0.2, "truncate": 0.1},
        ),
        ids=lambda r: "+".join(sorted(r)),
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_or_typed(
        self, seed, rates, healthcare_doc, healthcare_scs
    ):
        policy = FaultPolicy.symmetric(seed=seed, **rates)
        system = SecureXMLSystem.host(
            healthcare_doc,
            healthcare_scs,
            scheme="opt",
            channel=FaultyChannel(policy=policy),
        )
        answered = 0
        for query in axis_queries(healthcare_doc):
            try:
                answer = system.query(query)
            except QueryFailedError:
                continue  # typed failure is an allowed outcome
            answered += 1
            assert answer.canonical() == truth(healthcare_doc, query), (
                seed,
                rates,
                query,
            )
        assert answered >= 1


class TestPlanTiers:
    """The planner's tier choice is pinned for representative shapes."""

    @pytest.mark.parametrize(
        "query,kind",
        [
            ("//patient/pname", "axis"),
            ("//treat[disease='leukemia']/doctor", "axis"),
            ("//treat/following-sibling::insurance", "axis"),
            ("//age/ancestor::patient", "axis"),
            ("/hospital/patient[1]/pname", "axis"),
            ("//patient/descendant-or-self::patient", "axis"),
            ("//age/namespace::*", "residual"),
        ],
    )
    def test_plan_kind_recorded(
        self, healthcare_doc, healthcare_scs, query, kind
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        system.query(query)
        trace = system.last_trace
        assert trace.plan == kind, (query, trace.plan)
        if kind == "axis":
            assert trace.fallback_reason is None
        else:
            assert trace.fallback_reason

    def test_fallback_reason_surfaces_in_row_and_slowlog(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        system.query("//age/namespace::*")
        row = system.last_trace.as_row()
        assert row["plan"] == "residual"
        assert "namespace" in row["fallback_reason"]
        entries = system.observability().slow_log.entries()
        logged = {entry.query: entry for entry in entries}
        entry = logged["//age/namespace::*"]
        assert entry.plan == "residual"
        assert "namespace" in entry.fallback_reason
        assert "plan=residual" in entry.render()

    def test_naive_query_is_labelled_naive(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        system.naive_query("//patient/pname")
        trace = system.last_trace
        assert trace.naive and trace.plan == "naive"
        (entry,) = system.observability().slow_log.entries()
        assert entry.plan == "naive"
        assert entry.as_dict()["plan"] == "naive"
        assert "naive" in entry.render()
