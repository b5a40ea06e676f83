"""Unit tests for the tree builder and document statistics."""

import pytest

from repro.xmldb.builder import TreeBuilder
from repro.xmldb.stats import (
    depth,
    field_frequency,
    leaf_field_name,
    same_distribution,
    tag_histogram,
    value_frequencies,
)
from repro.xmldb.parser import parse_document


class TestTreeBuilder:
    def test_nested_construction(self):
        builder = TreeBuilder("r")
        with builder.element("a"):
            builder.leaf("b", "1")
            with builder.element("c"):
                builder.leaf("d", "2")
        doc = builder.document()
        assert doc.root.tag == "r"
        assert doc.root.children[0].children[1].children[0].text_value() == "2"

    def test_leaf_coerces_values(self):
        builder = TreeBuilder("r")
        builder.leaf("n", 42)
        doc = builder.document()
        assert doc.root.children[0].text_value() == "42"

    def test_attributes_via_kwargs_and_method(self):
        builder = TreeBuilder("r")
        with builder.element("a", x="1") as element:
            builder.attribute("y", 2)
        assert element.attribute("x").value == "1"
        assert element.attribute("y").value == "2"

    def test_empty_element(self):
        builder = TreeBuilder("r")
        builder.empty("hollow", k="v")
        doc = builder.document()
        assert doc.root.children[0].children == []

    def test_current_tracks_stack(self):
        builder = TreeBuilder("r")
        assert builder.current.tag == "r"
        with builder.element("a"):
            assert builder.current.tag == "a"
        assert builder.current.tag == "r"

    def test_document_is_numbered(self):
        builder = TreeBuilder("r")
        builder.leaf("a", "x")
        doc = builder.document()
        assert doc.root.node_id == 0


class TestStats:
    @pytest.fixture
    def doc(self):
        return parse_document(
            """
            <r>
              <p><name>A</name><age>30</age></p>
              <p><name>B</name><age>30</age></p>
              <p><name>A</name><age a="1">41</age></p>
            </r>
            """
        )

    def test_value_frequencies(self, doc):
        frequencies = value_frequencies(doc)
        assert frequencies["name"] == {"A": 2, "B": 1}
        assert frequencies["age"] == {"30": 2, "41": 1}
        assert frequencies["@a"] == {"1": 1}

    def test_field_frequency_missing_field(self, doc):
        assert field_frequency(doc, "nope") == {}

    def test_leaf_field_name(self, doc):
        leaves = list(doc.leaves())
        names = {leaf_field_name(leaf) for leaf in leaves}
        assert names == {"name", "age", "@a"}

    def test_leaf_field_name_rejects_text(self, doc):
        with pytest.raises(TypeError):
            leaf_field_name(doc.root.children[0].children[0].children[0])

    def test_tag_histogram(self, doc):
        histogram = tag_histogram(doc)
        assert histogram["p"] == 3
        assert histogram["name"] == 3
        assert histogram["r"] == 1

    def test_depth(self, doc):
        assert depth(doc) == 3  # r -> p -> name -> text

    def test_same_distribution_ignores_labels(self):
        from collections import Counter

        assert same_distribution(Counter(a=2, b=1), Counter(x=1, y=2))
        assert not same_distribution(Counter(a=2, b=1), Counter(x=2, y=2))
