"""Unit tests for query → pattern-tree compilation (the axis lowering)."""

import pytest

from repro.xpath.axes import ResidualRequired, compile_axis_pattern
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import plan_for


def compile_query(text):
    return compile_axis_pattern(parse_xpath(text))


class TestSpineCompilation:
    def test_simple_chain(self):
        tree = compile_query("/a/b/c")
        root = tree.roots[0]
        assert root.test == "a" and root.axis == "root-child"
        assert root.children[0].test == "b"
        assert root.children[0].axis == "child"
        assert tree.output.test == "c"
        assert tree.output.is_output

    def test_leading_double_slash(self):
        tree = compile_query("//a")
        assert tree.roots[0].axis == "root-descendant"
        assert tree.roots[0].test == "a"

    def test_inner_double_slash(self):
        tree = compile_query("/a//b")
        assert tree.roots[0].children[0].axis == "descendant"

    def test_attribute_output(self):
        tree = compile_query("//a/@x")
        assert tree.output.test == "@x"
        assert tree.output.axis == "attribute"
        assert tree.output.is_attribute

    def test_attribute_after_double_slash(self):
        tree = compile_query("//a//@x")
        assert tree.output.axis == "attribute-descendant"

    def test_wildcard_step(self):
        tree = compile_query("/a/*/c")
        assert tree.roots[0].children[0].is_wildcard

    def test_dot_steps_collapse(self):
        tree = compile_query("/a/./b")
        assert tree.roots[0].children[0].test == "b"


class TestPredicateCompilation:
    def test_existence_branch(self):
        tree = compile_query("//a[b/c]/d")
        root = tree.roots[0]
        tests = sorted(child.test for child in root.children)
        assert tests == ["b", "d"]
        branch = next(c for c in root.children if c.test == "b")
        assert branch.children[0].test == "c"

    def test_comparison_on_branch_leaf(self):
        tree = compile_query("//a[b/c='v']/d")
        branch = next(c for c in tree.roots[0].children if c.test == "b")
        assert branch.children[0].value_constraint == ("=", "v")

    def test_self_comparison_lands_on_node(self):
        tree = compile_query("//a[.='v']")
        assert tree.roots[0].value_constraint == ("=", "v")

    def test_descendant_predicate_branch(self):
        tree = compile_query("//a[.//b='v']")
        branch = tree.roots[0].children[0]
        assert branch.axis == "descendant"
        assert branch.value_constraint == ("=", "v")

    def test_attribute_predicate(self):
        tree = compile_query("//a[@x>=10]")
        branch = tree.roots[0].children[0]
        assert branch.test == "@x"
        assert branch.value_constraint == (">=", "10")

    def test_paper_example_query(self):
        tree = compile_query("//patient[.//insurance//@coverage>=10000]//SSN")
        root = tree.roots[0]
        assert root.test == "patient"
        insurance = next(c for c in root.children if c.test == "insurance")
        assert insurance.children[0].test == "@coverage"
        assert insurance.children[0].value_constraint == (">=", "10000")
        assert tree.output.test == "SSN"


class TestUnsupported:
    @pytest.mark.parametrize(
        "query",
        [
            "a/b",                       # relative
            "/@x",                       # attribute at root
        ],
    )
    def test_falls_back(self, query):
        with pytest.raises(ResidualRequired):
            compile_query(query)
        assert plan_for(query).kind == "residual"

    def test_nodes_enumeration(self):
        tree = compile_query("//a[b]//c")
        tests = sorted(node.test for node in tree.nodes())
        assert tests == ["a", "b", "c"]


class TestBeyondTheDownwardFragment:
    """Shapes outside the paper's twig fragment lower to axis plans."""

    @pytest.mark.parametrize(
        "query,edge",
        [
            ("/a/b[1]", "child"),                        # positional
            ("//a/following-sibling::b", "following-sibling"),
            ("//a/..", "parent"),                        # reverse axis
        ],
    )
    def test_lowers_to_axis_plan(self, query, edge):
        tree = compile_query(query)
        assert tree.output.axis == edge
        assert plan_for(query).kind == "axis"

    def test_positional_step_is_marked(self):
        tree = compile_query("/a/b[1]")
        assert tree.output.position_sensitive
        assert tree.output.children == []
