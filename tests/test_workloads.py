"""Tests for the workload generators and query classes."""

import hashlib
import json

import pytest

from repro.workloads.axes import AxisWorkload
from repro.workloads.healthcare import (
    EXAMPLE_QUERY,
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.queries import QueryWorkload
from repro.workloads.xmark import build_xmark_database, xmark_constraints
from repro.xmldb.serializer import serialize
from repro.xmldb.stats import depth, tag_histogram, value_frequencies
from repro.xpath.evaluator import evaluate


class TestHealthcare:
    def test_matches_figure_2(self):
        doc = build_healthcare_database()
        assert [n.text_value() for n in evaluate(doc, "//pname")] == [
            "Betty",
            "Matt",
        ]
        assert len(evaluate(doc, "//treat")) == 3
        assert len(evaluate(doc, "//policy#")) == 4
        coverages = [a.value for a in evaluate(doc, "//insurance/@coverage")]
        assert coverages == ["1000000", "10000"]

    def test_diarrhea_repeats(self):
        doc = build_healthcare_database()
        frequencies = value_frequencies(doc)["disease"]
        assert frequencies["diarrhea"] == 2
        assert frequencies["leukemia"] == 1

    def test_constraints_parse(self):
        constraints = healthcare_constraints()
        assert len(constraints) == 4
        assert sum(1 for c in constraints if c.is_association) == 3

    def test_example_query_answer(self):
        doc = build_healthcare_database()
        values = [n.text_value() for n in evaluate(doc, EXAMPLE_QUERY)]
        assert sorted(values) == ["276543", "763895"]


class TestGenerators:
    @pytest.mark.parametrize(
        "builder,count_arg",
        [(build_xmark_database, 20), (build_nasa_database, 15)],
    )
    def test_deterministic(self, builder, count_arg):
        assert serialize(builder(count_arg, seed=5)) == serialize(
            builder(count_arg, seed=5)
        )

    @pytest.mark.parametrize(
        "builder", [build_xmark_database, build_nasa_database]
    )
    def test_seed_changes_content(self, builder):
        assert serialize(builder(10, seed=1)) != serialize(builder(10, seed=2))

    def test_xmark_scales_with_person_count(self):
        small = build_xmark_database(10)
        large = build_xmark_database(40)
        assert large.size() > 3 * small.size()

    def test_xmark_has_constraint_graph_tags(self, xmark_doc):
        histogram = tag_histogram(xmark_doc)
        for tag in ("name", "emailaddress", "income", "creditcard",
                    "address", "profile", "age"):
            assert histogram[tag] > 0, tag

    def test_nasa_has_constraint_graph_tags(self, nasa_doc):
        histogram = tag_histogram(nasa_doc)
        for tag in ("initial", "last", "date", "publisher", "title", "city"):
            assert histogram[tag] > 0, tag

    def test_nasa_deeper_than_xmark(self, xmark_doc, nasa_doc):
        # The NASA data's author nesting is the deep part of the paper's
        # real dataset.
        assert depth(nasa_doc) >= 6
        assert depth(xmark_doc) >= 4

    def test_constraints_bind(self, xmark_doc, nasa_doc):
        for constraint in xmark_constraints():
            if constraint.is_association:
                assert constraint.endpoint_nodes(xmark_doc, 1)
                assert constraint.endpoint_nodes(xmark_doc, 2)
        for constraint in nasa_constraints():
            if constraint.is_association:
                assert constraint.endpoint_nodes(nasa_doc, 1)
                assert constraint.endpoint_nodes(nasa_doc, 2)

    def test_skewed_income_distribution(self, xmark_doc):
        frequencies = value_frequencies(xmark_doc)["income"]
        counts = sorted(frequencies.values(), reverse=True)
        assert counts[0] >= 2  # repeated salary bands for OPESS to flatten


class TestQueryWorkload:
    @pytest.fixture(scope="class")
    def workload(self, nasa_doc):
        return QueryWorkload(nasa_doc, seed=3, per_class=10)

    def test_three_classes_of_ten(self, workload):
        by_class = workload.by_class()
        assert set(by_class) == {"Qs", "Qm", "Ql"}
        assert all(len(queries) == 10 for queries in by_class.values())

    def test_deterministic(self, nasa_doc):
        first = QueryWorkload(nasa_doc, seed=3).by_class()
        second = QueryWorkload(nasa_doc, seed=3).by_class()
        assert first == second

    def test_qs_outputs_root_children(self, workload, nasa_doc):
        for query in workload.qs():
            results = evaluate(nasa_doc, query)
            assert results
            assert all(node.depth == 1 for node in results)

    def test_qm_outputs_mid_level(self, workload, nasa_doc):
        target = max(1, depth(nasa_doc) // 2)
        for query in workload.qm():
            for node in evaluate(nasa_doc, query):
                assert node.depth == target

    def test_ql_outputs_leaves(self, workload, nasa_doc):
        from repro.xmldb.node import Attribute

        for query in workload.ql():
            for node in evaluate(nasa_doc, query):
                assert isinstance(node, Attribute) or node.is_leaf_element

    def test_queries_parse_and_answer(self, workload, nasa_doc):
        for queries in workload.by_class().values():
            for query in queries:
                evaluate(nasa_doc, query)  # must not raise


class TestGeneratedInputsPinned:
    """The benchmark gate's inputs do not move with the hosting PRF.

    ``bench/`` hosts ``build_xmark_database(200, seed=2006)`` and
    ``build_nasa_database(200, seed=2006)`` and draws its axis reads from
    ``AxisWorkload``; every E-table in EXPERIMENTS.md describes documents
    and query sets of the same generators.  Digests taken at the commit
    before hosted format 3, when the generators shared their stream with
    the keyring: they draw from ``repro.workloads.rng`` so that these stay
    what they were while hosted bytes were re-pinned.
    """

    DOCUMENTS = {
        "xmark": "8ba1cfff10afa34b5388e127af76051fb8943d00e6e1f9d060a4cc2cd8adee4b",
        "nasa": "24d1708faf0bcb9df46b42472c1ab213fa7b79142aebefe5b28361882c25dd37",
        "healthcare": "229de43156da2d80f69bca3bd157fe63f2897112f6bce1cebe2a77b57ed8708f",
    }
    AXIS_SHAPES = {
        "xmark": "48ece24c1b7fe19e954419d240bb6bf92ba124c58d1495e4b83596551c142c71",
        "nasa": "aa70826a61a3bb86b90989e08fc7df12b2838ee29e8213b80e0763d5f5f60581",
        "healthcare": "9ceb6d65ffa8bb6fb09f792d6716f5f574bae06ee1676c9cd7d89c3606a52f25",
    }
    QUERY_CLASSES = {
        "xmark": "ed68c156a135166e54c88a0db4e014d1452b7a6a18e8f18482002adb1cc9e68c",
        "nasa": "0bca7c38ff774ca533cbb6909f179ba225c87d6b7aa00a825a142d297a3ead98",
        "healthcare": "83c10d1753e6bdbbd1b9426704ba3ddd0e789ec6157c27003651e2066fd3fdd6",
    }
    BUILDERS = {
        "xmark": lambda: build_xmark_database(200, seed=2006),
        "nasa": lambda: build_nasa_database(200, seed=2006),
        "healthcare": build_healthcare_database,
    }

    @staticmethod
    def _digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("dataset", sorted(BUILDERS))
    def test_document_and_query_shapes(self, dataset):
        document = self.BUILDERS[dataset]()
        assert self._digest(serialize(document)) == self.DOCUMENTS[dataset]
        assert (
            self._digest(json.dumps(AxisWorkload(document).queries()))
            == self.AXIS_SHAPES[dataset]
        )
        classes = QueryWorkload(document, seed=51, per_class=6).by_class()
        assert (
            self._digest(json.dumps(classes, sort_keys=True))
            == self.QUERY_CLASSES[dataset]
        )

    def test_first_axis_shapes_spelled_out(self):
        """A digest says *that* a list moved; these say what it was."""
        shapes = AxisWorkload(self.BUILDERS["nasa"]()).queries()
        assert shapes[:4] == [
            "//history/creation",
            "//dataset/reference",
            "//author/age",
            "//journal",
        ]
        assert shapes[-3:] == [
            "//distribution/size[last()]",
            "//author/last[1]",
            "//initial[position()=1]",
        ]
