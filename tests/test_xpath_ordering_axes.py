"""Tests for the document-order axes: following / preceding (§5.1).

The paper notes that "XPath axes descendant, following, following-sibling
(and their symmetric counterparts) are all computed efficiently just as
using a regular (continuous) interval index": ``following(x, y)`` holds
exactly when y's DSI interval starts after x's ends.  These tests pin the
evaluator's semantics by literal answers and verify the interval
characterization against it.
"""

import pytest

from repro.core.dsi import assign_intervals
from repro.crypto.prf import DeterministicRandom
from repro.xmldb.node import Element
from repro.xmldb.parser import parse_document
from repro.xpath.evaluator import evaluate


@pytest.fixture
def doc():
    return parse_document(
        """
        <r>
          <a><x>1</x><y>2</y></a>
          <b><x>3</x></b>
          <c><d><x>4</x></d><y>5</y></c>
        </r>
        """
    )


def values(nodes):
    return [n.text_value() for n in nodes]


class TestFollowingPreceding:
    def test_following_after_subtree(self, doc):
        # Everything after <a>'s subtree: b, its x, c, d, x, y.
        result = evaluate(doc, "/r/a/following::x")
        assert values(result) == ["3", "4"]

    def test_following_excludes_descendants(self, doc):
        result = evaluate(doc, "/r/a/following::*")
        tags = [n.tag for n in result]
        assert "y" in tags  # c's y, which follows a
        assert tags.count("x") == 2  # a's own x is NOT following

    def test_following_from_nested(self, doc):
        # From the x inside a: its sibling y follows, then b, c subtrees.
        result = evaluate(doc, "/r/a/x/following::y")
        assert values(result) == ["2", "5"]

    def test_preceding_before_subtree(self, doc):
        result = evaluate(doc, "/r/c/preceding::x")
        assert values(result) == ["1", "3"]

    def test_preceding_excludes_ancestors(self, doc):
        result = evaluate(doc, "/r/c/d/x/preceding::*")
        tags = [n.tag for n in result]
        assert "r" not in tags and "c" not in tags and "d" not in tags
        assert "a" in tags and "b" in tags

    def test_ancestor_or_self(self, doc):
        result = evaluate(doc, "/r/c/d/x/ancestor-or-self::*")
        tags = [n.tag for n in result]
        assert tags == ["r", "c", "d", "x"]  # document order

    def test_following_preceding_partition(self, doc):
        """following ∪ preceding ∪ ancestors ∪ descendants ∪ self = all."""
        target = evaluate(doc, "/r/c/d")[0]
        following = set(
            id(n) for n in evaluate(doc, "/r/c/d/following::*")
        )
        preceding = set(
            id(n) for n in evaluate(doc, "/r/c/d/preceding::*")
        )
        ancestors = {id(n) for n in target.ancestors()}
        subtree = {id(n) for n in target.iter() if isinstance(n, Element)}
        every_element = {
            id(n) for n in doc.root.iter() if isinstance(n, Element)
        }
        union = following | preceding | ancestors | subtree
        assert union == every_element
        assert not (following & preceding)


class TestIntervalCharacterization:
    def test_following_iff_interval_after(self, doc):
        """The §5.1 claim: following(x, y) ⇔ y.low > x.high."""
        intervals = assign_intervals(
            doc, DeterministicRandom(b"f" * 16, "axes")
        )
        elements = [
            n for n in doc.root.iter() if isinstance(n, Element)
        ]
        for source in elements:
            following_ids = {
                id(n) for n in evaluate(
                    doc,
                    _path_to(source) + "/following::*",
                )
            }
            for candidate in elements:
                if candidate is source:
                    continue
                geometric = (
                    intervals[candidate.node_id].low
                    > intervals[source.node_id].high
                )
                assert geometric == (id(candidate) in following_ids), (
                    source.tag,
                    candidate.tag,
                )


def _path_to(element: Element) -> str:
    """Absolute child path addressing this exact element by position."""
    pieces = []
    node = element
    while node.parent is not None:
        siblings = [
            c for c in node.parent.children
            if isinstance(c, Element) and c.tag == node.tag
        ]
        index = siblings.index(node) + 1
        pieces.append(f"{node.tag}[{index}]")
        node = node.parent
    pieces.append(node.tag)
    return "/" + "/".join(reversed(pieces))

class TestReverseAxisProximity:
    """A positional predicate counts in the axis's own direction.

    XPath 1.0 §2.4: on a reverse axis position 1 is the node nearest the
    context node, i.e. candidates are numbered in reverse document order.
    """

    @pytest.fixture
    def nested(self):
        return parse_document(
            "<r><a><x>1</x><x>2</x></a><a><x>3</x><x>4</x></a><y>t</y></r>"
        )

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("//y/preceding::x[1]", ["4"]),
            ("//y/preceding::x[2]", ["3"]),
            ("//y/preceding::x[last()]", ["1"]),
            ("//y/preceding::x[position()=3]", ["2"]),
            ("//y/preceding-sibling::a[1]/x", ["3", "4"]),
            ("//y/preceding-sibling::a[last()]/x", ["1", "2"]),
            # One answer per context node, merged into document order.
            ("//x/preceding-sibling::x[1]", ["1", "3"]),
            ("//x/preceding::x[1]", ["1", "2", "3"]),
        ],
    )
    def test_positions_count_backwards(self, nested, query, expected):
        assert values(evaluate(nested, query)) == expected

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("/r/c/d/x/ancestor::*[1]", ["d"]),
            ("/r/c/d/x/ancestor::*[2]", ["c"]),
            ("/r/c/d/x/ancestor::*[last()]", ["r"]),
            ("/r/c/d/x/ancestor-or-self::*[1]", ["x"]),
            ("//x/ancestor::*[2]", ["r", "c"]),
        ],
    )
    def test_ancestor_positions_count_upwards(self, doc, query, expected):
        assert [n.tag for n in evaluate(doc, query)] == expected

    def test_forward_axes_count_forwards(self, nested):
        assert values(evaluate(nested, "/r/a[1]/following::x[1]")) == ["3"]
        assert values(evaluate(nested, "/r/a[1]/following::x[last()]")) == ["4"]
        assert values(evaluate(nested, "/r/a[1]/x[1]/following-sibling::x[1]")) == ["2"]


class TestAttributeContext:
    """Attributes have no siblings and sit before their owner's children."""

    @pytest.fixture
    def attributed(self):
        return parse_document(
            '<r><p id="1"><q>a</q></p><p id="2"><q>b</q></p></r>'
        )

    def test_no_siblings(self, attributed):
        assert evaluate(attributed, "//p/@id/preceding-sibling::*") == []
        assert evaluate(attributed, "//p/@id/following-sibling::*") == []

    def test_following_starts_inside_the_owner(self, attributed):
        result = evaluate(attributed, "/r/p[2]/@id/following::q")
        assert values(result) == ["b"]

    def test_preceding_excludes_the_owner(self, attributed):
        result = evaluate(attributed, "/r/p[2]/@id/preceding::*")
        assert [n.tag for n in result] == ["p", "q"]
