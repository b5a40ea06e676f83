"""The evaluator's cost, counted: node tests per query, never a clock.

A step may hand each node it touches to the step's node test once; an
order axis used to do so once *per context node* (122 k tests for
``//income/following::age`` on 200 persons).  The bound here is a small
multiple of the document's element count, and doubling the document may
at most double the count.
"""

import pytest

import repro.xpath.evaluator as evaluator
from repro.workloads.xmark import build_xmark_database
from repro.xmldb.node import Document, Element, Text

ORDER_AXIS_QUERIES = (
    "//income/following::age",
    "//interest/preceding::age",
    "//person/following-sibling::person",
)


@pytest.fixture
def node_tests(monkeypatch):
    """Count every call of a step's node test."""
    calls = [0]
    make_test = evaluator._node_test

    def counting(step):
        test = make_test(step)

        def counted(node):
            calls[0] += 1
            return test(node)

        return counted

    monkeypatch.setattr(evaluator, "_node_test", counting)

    def count(document, query):
        document.renumber()  # drops the cached order: its build is in scope
        calls[0] = 0
        answer = evaluator.evaluate(document, query)
        assert answer, query
        return calls[0]

    return count


def element_count(document):
    return sum(1 for _ in document.elements())


def recursive_document(depth):
    """``a`` nested ``depth`` deep, a ``b`` leaf beside every level."""
    root = current = Element("a")
    for level in range(depth):
        leaf = Element("b")
        leaf.append(Text(str(level)))
        current.append(leaf)
        current = current.append(Element("a"))
    return Document(root)


@pytest.mark.parametrize("query", ORDER_AXIS_QUERIES)
def test_order_axes_touch_each_element_a_few_times(node_tests, query):
    small = build_xmark_database(200, seed=1)
    large = build_xmark_database(400, seed=1)
    assert element_count(large) <= 2 * element_count(small)
    count = node_tests(small, query)
    assert count <= 3 * element_count(small)
    assert node_tests(large, query) <= 2 * count + 16


def test_nested_contexts_are_expanded_once(node_tests):
    """``//a//a//b`` where every ``a`` contains all the later ones."""
    small, large = recursive_document(12), recursive_document(24)
    count = node_tests(small, "//a//a//b")
    assert count <= 3 * element_count(small)
    assert node_tests(large, "//a//a//b") <= 2 * count + 16
