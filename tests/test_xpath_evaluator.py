"""Unit tests for the XPath evaluator (the system's correctness oracle)."""

import pytest

from repro.xmldb.parser import parse_document, parse_fragment
from repro.xpath.evaluator import (
    compare_values,
    evaluate,
    evaluate_on_element,
    matches,
)


@pytest.fixture
def doc():
    return parse_document(
        """
        <store>
          <dept name="fruit">
            <item><label>apple</label><price>3</price></item>
            <item><label>pear</label><price>5</price></item>
          </dept>
          <dept name="tools">
            <item special="yes"><label>saw</label><price>25</price></item>
          </dept>
          <manager>Ann</manager>
        </store>
        """
    )


def values(nodes):
    return [n.text_value() for n in nodes]


class TestAxes:
    def test_root_selection(self, doc):
        result = evaluate(doc, "/store")
        assert len(result) == 1 and result[0] is doc.root

    def test_wrong_root_empty(self, doc):
        assert evaluate(doc, "/shop") == []

    def test_child_chain(self, doc):
        assert values(evaluate(doc, "/store/dept/item/label")) == [
            "apple",
            "pear",
            "saw",
        ]

    def test_descendant(self, doc):
        assert values(evaluate(doc, "//label")) == ["apple", "pear", "saw"]

    def test_inner_descendant(self, doc):
        assert values(evaluate(doc, "/store//price")) == ["3", "5", "25"]

    def test_wildcard(self, doc):
        tags = [n.tag for n in evaluate(doc, "/store/*")]
        assert tags == ["dept", "dept", "manager"]

    def test_attribute_axis(self, doc):
        names = [n.value for n in evaluate(doc, "//dept/@name")]
        assert names == ["fruit", "tools"]

    def test_attribute_wildcard(self, doc):
        attrs = evaluate(doc, "//item/@*")
        assert [a.name for a in attrs] == ["special"]

    def test_parent_axis(self, doc):
        result = evaluate(doc, "//label/..")
        assert all(n.tag == "item" for n in result)
        assert len(result) == 3

    def test_self_axis(self, doc):
        assert values(evaluate(doc, "//label/.")) == ["apple", "pear", "saw"]

    def test_following_sibling(self, doc):
        result = evaluate(doc, "//label/following-sibling::price")
        assert values(result) == ["3", "5", "25"]

    def test_preceding_sibling(self, doc):
        result = evaluate(doc, "//price/preceding-sibling::label")
        assert values(result) == ["apple", "pear", "saw"]

    def test_ancestor(self, doc):
        result = evaluate(doc, "//label/ancestor::dept")
        assert len(result) == 2  # deduplicated

    def test_descendant_explicit_axis(self, doc):
        result = evaluate(doc, "/store/descendant::price")
        assert len(result) == 3


class TestPredicates:
    def test_existence(self, doc):
        result = evaluate(doc, "//item[label]")
        assert len(result) == 3
        assert evaluate(doc, "//item[missing]") == []

    def test_equality_string(self, doc):
        result = evaluate(doc, "//item[label='saw']/price")
        assert values(result) == ["25"]

    def test_numeric_comparisons(self, doc):
        assert values(evaluate(doc, "//item[price>4]/label")) == ["pear", "saw"]
        assert values(evaluate(doc, "//item[price<=3]/label")) == ["apple"]
        assert values(evaluate(doc, "//item[price!=5]/label")) == ["apple", "saw"]

    def test_attribute_predicate(self, doc):
        result = evaluate(doc, "//item[@special='yes']/label")
        assert values(result) == ["saw"]

    def test_attribute_existence_predicate(self, doc):
        result = evaluate(doc, "//item[@special]/label")
        assert values(result) == ["saw"]

    def test_positional(self, doc):
        assert values(evaluate(doc, "/store/dept[2]/item/label")) == ["saw"]
        assert values(evaluate(doc, "//dept/item[1]/label")) == ["apple", "saw"]

    def test_positional_out_of_range(self, doc):
        assert evaluate(doc, "/store/dept[5]") == []

    def test_nested_path_predicate(self, doc):
        result = evaluate(doc, "/store[dept/item/label='saw']/manager")
        assert values(result) == ["Ann"]

    def test_self_value_predicate(self, doc):
        assert values(evaluate(doc, "//price[.>4]")) == ["5", "25"]

    def test_multiple_predicates_conjunction(self, doc):
        result = evaluate(doc, "//item[label='saw'][price=25]")
        assert len(result) == 1

    def test_descendant_in_predicate(self, doc):
        result = evaluate(doc, "/store/dept[.//price=25]/@name")
        assert [a.value for a in result] == ["tools"]


class TestContextual:
    def test_evaluate_on_element_relative(self, doc):
        dept = evaluate(doc, "/store/dept")[0]
        assert values(evaluate_on_element(dept, "item/label")) == [
            "apple",
            "pear",
        ]

    def test_evaluate_on_element_absolute_resolves_root(self, doc):
        dept = evaluate(doc, "/store/dept")[0]
        assert values(evaluate_on_element(dept, "//manager")) == ["Ann"]

    def test_matches(self, doc):
        saw_label = evaluate(doc, "//item[price=25]/label")[0]
        assert matches(doc, "//label", saw_label)
        assert not matches(doc, "//manager", saw_label)

    def test_document_order_and_dedup(self, doc):
        result = evaluate(doc, "//item/ancestor::dept/item/label")
        assert values(result) == ["apple", "pear", "saw"]

    def test_document_order_without_numbering(self):
        """A parsed fragment has no ids; order comes from the tree itself."""
        fragment = parse_fragment(
            '<a><a><b k="2" m="3"/></a><b k="4"/><c><b k="1"/></c></a>'
        )
        assert fragment.node_id == -1
        # The outer a's child comes after the inner a's in document order,
        # though the outer a is met first.
        result = evaluate_on_element(fragment, "descendant-or-self::a/b/@*")
        assert [a.value for a in result] == ["2", "3", "4"]
        result = evaluate_on_element(fragment, "//b/ancestor::*/b/@k")
        assert [a.value for a in result] == ["2", "4", "1"]

    def test_document_node_has_no_value(self, doc):
        assert evaluate(doc, "/.[.=1]") == []
        assert evaluate(doc, "//item[/.=1]") == []


class TestCompareValues:
    @pytest.mark.parametrize(
        "left,op,right,expected",
        [
            ("3", "<", "12", True),     # numeric, not lexicographic
            ("abc", "<", "abd", True),  # string fallback
            ("3", "=", "3.0", True),    # numeric equality coerces
            ("x", "=", "x", True),
            ("x", "!=", "y", True),
            ("10", ">=", "10", True),
            ("9", ">", "10", False),
        ],
    )
    def test_semantics(self, left, op, right, expected):
        assert compare_values(left, op, right) is expected

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            compare_values("1", "~", "2")
