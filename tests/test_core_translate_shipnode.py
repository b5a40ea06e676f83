"""Focused tests for ship-set selection (the fragment-granularity choice).

The ship set determines what the server returns: every pattern node whose
full surviving match set the client needs, none of them reached from
another by downward edges only.  On the paper's downward fragment that is
one node — the deepest spine node whose subtree still contains every
constrained/branching pattern node and the output.  Getting it wrong
either breaks exactness (too deep) or ships the world (too shallow), so
its placement deserves direct coverage.
"""

import pytest

from repro.xpath.axes import compile_axis_pattern
from repro.xpath.parser import parse_xpath


def ship_tests(query: str) -> list[str]:
    pattern = compile_axis_pattern(parse_xpath(query))
    return [node.test for node in pattern.ship_nodes]


class TestShipNodePlacement:
    def test_plain_chain_ships_output(self):
        assert ship_tests("/a/b/c") == ["c"]
        assert ship_tests("//SSN") == ["SSN"]

    def test_predicate_pins_the_spine_node(self):
        assert ship_tests("//patient[pname='B']//SSN") == ["patient"]

    def test_self_constraint_pins_its_node(self):
        assert ship_tests("//a/b[.='v']") == ["b"]

    def test_deep_predicate_branch(self):
        assert ship_tests(
            "//patient[.//insurance//@coverage>=1]//SSN"
        ) == ["patient"]

    def test_predicate_below_output_is_fine(self):
        # The branch hangs off the output node itself: ship the output.
        assert ship_tests("//a/b[c='v']") == ["b"]

    def test_earliest_constraint_wins(self):
        assert ship_tests("//a[x=1]/b[y=2]/c") == ["a"]

    def test_mid_spine_constraint(self):
        assert ship_tests("//a/b[y=2]/c") == ["b"]

    def test_existence_branch_counts(self):
        assert ship_tests("//a[b]/c/d") == ["a"]

    def test_wildcards_on_spine(self):
        assert ship_tests("/a/*/c") == ["c"]

    def test_attribute_output(self):
        assert ship_tests("//a/@x") == ["@x"]
        assert ship_tests("//a[@k='1']/@x") == ["a"]


class TestShipSetBeyondDownwardEdges:
    """Nodes reached by an upward or order edge ship on their own."""

    def test_reverse_output(self):
        # x's matches lie above b's: no fragment of one holds the other.
        assert ship_tests("//b/ancestor::x") == ["b", "x"]

    def test_escaping_branch(self):
        # d and b sit inside a's fragments; c, reached by a following
        # edge, does not.
        assert ship_tests("//a[b/following::c]/d") == ["a", "c"]

    def test_reverse_edge_mid_spine(self):
        # The spine climbs from c to b, then goes down again to d: d's
        # matches lie inside b's fragments.
        assert ship_tests("//c/parent::b/d") == ["c", "b"]
        assert ship_tests("//a/b/ancestor::x/y") == ["b", "x"]


class TestShipNodeExactnessConsequence:
    """Shipping at the chosen node keeps block-granular predicates exact."""

    @pytest.mark.parametrize("kind", ["sub", "top"])
    def test_coarse_blocks_with_predicates(
        self, kind, healthcare_doc, healthcare_scs
    ):
        from repro.core.client import canonical_node
        from repro.core.system import SecureXMLSystem
        from repro.xpath.evaluator import evaluate

        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme=kind
        )
        # Under sub/top the SSN block spans more than one SSN value, so a
        # block-granular predicate check alone would be wrong; the shipped
        # patient context restores exactness.
        query = "//patient[SSN='763895']/pname"
        expected = sorted(
            canonical_node(n) for n in evaluate(healthcare_doc, query)
        )
        assert system.query(query).canonical() == expected
