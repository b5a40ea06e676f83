"""Unit tests for the XPath lexer and parser."""

import pytest

from repro.xpath import ast
from repro.xpath.lexer import XPathSyntaxError, tokenize
from repro.xpath.parser import parse_xpath


class TestLexer:
    def test_path_tokens(self):
        kinds = [t.kind for t in tokenize("//a/b")]
        assert kinds == ["DSLASH", "NAME", "SLASH", "NAME", "END"]

    def test_operators(self):
        values = [t.value for t in tokenize("a>=1") if t.kind == "OP"]
        assert values == [">="]
        values = [t.value for t in tokenize("a!=b") if t.kind == "OP"]
        assert values == ["!="]

    def test_string_literals(self):
        tokens = tokenize("[x='hi there']")
        strings = [t.value for t in tokens if t.kind == "STRING"]
        assert strings == ["hi there"]

    def test_double_quoted_string(self):
        tokens = tokenize('[x="q"]')
        assert [t.value for t in tokens if t.kind == "STRING"] == ["q"]

    def test_numbers(self):
        tokens = tokenize("[x=12.5]")
        assert [t.value for t in tokens if t.kind == "NUMBER"] == ["12.5"]

    def test_name_with_hash(self):
        tokens = tokenize("//policy#")
        assert tokens[1].value == "policy#"

    def test_axis_separator(self):
        kinds = [t.kind for t in tokenize("following-sibling::b")]
        assert kinds == ["NAME", "AXIS", "NAME", "END"]

    def test_unterminated_string_rejected(self):
        with pytest.raises(XPathSyntaxError):
            tokenize("[x='oops]")

    def test_position_recorded(self):
        tokens = tokenize("//abc")
        assert tokens[1].position == 2


class TestParser:
    def test_absolute_child_chain(self):
        path = parse_xpath("/a/b/c")
        assert path.absolute
        assert [s.test.name for s in path.steps] == ["a", "b", "c"]
        assert all(s.axis == ast.AXIS_CHILD for s in path.steps)

    def test_double_slash_desugars(self):
        path = parse_xpath("//a")
        assert path.absolute
        assert path.steps[0].axis == ast.AXIS_DESCENDANT_OR_SELF
        assert path.steps[0].test.is_wildcard
        assert path.steps[1].test.name == "a"

    def test_inner_double_slash(self):
        path = parse_xpath("/a//b")
        assert [s.axis for s in path.steps] == [
            ast.AXIS_CHILD,
            ast.AXIS_DESCENDANT_OR_SELF,
            ast.AXIS_CHILD,
        ]

    def test_attribute_step(self):
        path = parse_xpath("//a/@x")
        assert path.steps[-1].axis == ast.AXIS_ATTRIBUTE
        assert path.steps[-1].test.name == "x"

    def test_wildcard(self):
        path = parse_xpath("/a/*")
        assert path.steps[1].test.is_wildcard

    def test_dot_and_dotdot(self):
        path = parse_xpath("./a/..")
        assert path.steps[0].axis == ast.AXIS_SELF
        assert path.steps[-1].axis == ast.AXIS_PARENT

    def test_explicit_axis(self):
        path = parse_xpath("a/following-sibling::b")
        assert path.steps[1].axis == ast.AXIS_FOLLOWING_SIBLING

    def test_existence_predicate(self):
        path = parse_xpath("//a[b/c]")
        predicate = path.steps[1].predicates[0]
        assert isinstance(predicate.expr, ast.Exists)

    def test_comparison_predicate_string(self):
        path = parse_xpath("//a[b='v']")
        comparison = path.steps[1].predicates[0].expr
        assert isinstance(comparison, ast.Comparison)
        assert comparison.op == "="
        assert comparison.literal == "v"
        assert comparison.numeric is None

    def test_comparison_predicate_number(self):
        path = parse_xpath("//a[b>=10]")
        comparison = path.steps[1].predicates[0].expr
        assert comparison.numeric == 10.0

    def test_bareword_literal(self):
        # The paper writes //patient[pname=Betty].
        path = parse_xpath("//patient[pname=Betty]")
        comparison = path.steps[1].predicates[0].expr
        assert comparison.literal == "Betty"

    def test_positional_predicate(self):
        path = parse_xpath("/a/b[2]")
        position = path.steps[1].predicates[0].expr
        assert isinstance(position, ast.Position)
        assert position.index == 2

    def test_multiple_predicates(self):
        path = parse_xpath("//p[a=1][b=2]")
        assert len(path.steps[1].predicates) == 2

    def test_self_comparison(self):
        path = parse_xpath("//a[.='x']")
        comparison = path.steps[1].predicates[0].expr
        assert isinstance(comparison, ast.Comparison)

    def test_relative_path(self):
        path = parse_xpath("a/b")
        assert not path.absolute

    @pytest.mark.parametrize(
        "bad",
        ["", "//", "/a[", "/a]", "/a[1.5]", "/a[0]", "/a[b=]", "a b", "/a[=1]"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(bad)


class TestRendering:
    @pytest.mark.parametrize(
        "query",
        [
            "/a/b/c",
            "//a",
            "/a//b",
            "//patient[.//insurance//@coverage>=10000]//SSN",
            "//a[b='v']",
            "//a/@x",
            "/a/*",
            "//a[2]",
        ],
    )
    def test_str_roundtrips_through_parser(self, query):
        path = parse_xpath(query)
        assert parse_xpath(str(path)) == path
