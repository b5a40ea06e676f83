"""The set-at-a-time evaluator against the tree walk it replaced.

``xpath_evaluator_oracle`` is the old ``repro/xpath/evaluator.py``: every
axis re-walked for every context node.  It is slow and obviously right, and
the benchmark's plaintext oracle now runs on the *new* evaluator — so this
is the test that keeps the benchmark's notion of a correct answer honest.
Answers are compared as lists of node identities: same nodes, same order.

Several kinds of tree, because each reaches the evaluator differently:
numbered documents (whose ``DocumentOrder`` is cached), pruned documents
as ``Client.assemble`` builds them, detached fragments that were never
numbered or carry ids from elsewhere (no ``node_id`` to sort an answer
by), documents that grew after they were numbered, and trees holding
encrypted block placeholders.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xpath_evaluator_oracle as oracle
from test_decrypt_oracle import pruned_document
from repro.core.client import canonical_node
from repro.core.system import SecureXMLSystem
from repro.workloads.axes import AxisWorkload
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints
from repro.xmldb.node import Document, Element, EncryptedBlockNode, Text
from repro.xpath import ast
from repro.xpath.evaluator import evaluate, evaluate_on_element
from repro.xpath.parser import parse_xpath

SEEDS = range(5)

DATASETS = {
    "healthcare": (build_healthcare_database, healthcare_constraints),
    "xmark": (lambda: build_xmark_database(40, seed=11), xmark_constraints),
    "nasa": (lambda: build_nasa_database(30, seed=13), nasa_constraints),
}


def assert_same_nodes(actual, expected, query):
    assert len(actual) == len(expected), query
    for got, want in zip(actual, expected):
        assert got is want, query


def oracle_answer(evaluator, tree, path):
    try:
        return evaluator(tree, path)
    except AttributeError:
        # The oracle's known crash: a value predicate on the document node,
        # which has no value, so nothing passes it.
        return []


def in_tree_order(root, nodes):
    """``nodes`` sorted by position in ``root``'s tree (attributes after owner).

    The oracle promises document order only on numbered trees; this gives
    its answers on the others an order to be compared in.
    """
    position: dict[int, int] = {}
    for node in root.iter():
        position[id(node)] = len(position)
        for attribute in getattr(node, "attributes", ()):
            position[id(attribute)] = len(position)
    return sorted(nodes, key=lambda node: position[id(node)])


# ----------------------------------------------------------------------
# The axis workload on the three datasets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_axis_workload_on_numbered_documents(dataset):
    document = DATASETS[dataset][0]()
    checked = 0
    for seed in SEEDS:
        for query in AxisWorkload(document, seed=seed).queries():
            assert_same_nodes(
                evaluate(document, query),
                oracle.evaluate(document, query),
                query,
            )
            checked += 1
    assert checked >= 13 * len(SEEDS)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_axis_workload_on_pruned_documents(dataset):
    """What the client actually evaluates on: ``Client.assemble`` output."""
    build, constraints = DATASETS[dataset]
    plaintext = build()
    system = SecureXMLSystem.host(build(), constraints(), scheme="opt")
    for seed in SEEDS[:2]:
        for query in AxisWorkload(plaintext, seed=seed).queries():
            answer = system.query(query)
            pruned = pruned_document(system, query)
            assert_same_nodes(
                evaluate(pruned, query), oracle.evaluate(pruned, query), query
            )
            assert sorted(map(canonical_node, answer.nodes)) == sorted(
                map(canonical_node, evaluate(plaintext, query))
            ), query


def test_reverse_axis_positions_survive_the_whole_pipeline():
    """Positional steps are decided by the client, so the fix lands there."""
    plaintext = build_healthcare_database()
    system = SecureXMLSystem.host(
        build_healthcare_database(), healthcare_constraints(), scheme="opt"
    )
    for query in (
        "//treat/preceding::pname[1]",
        "//treat/preceding::pname[last()]",
        "//disease/ancestor::*[2]",
    ):
        assert system.query(query).canonical() == [
            canonical_node(node) for node in evaluate(plaintext, query)
        ], query


# ----------------------------------------------------------------------
# Generated trees × generated paths
# ----------------------------------------------------------------------
TAGS = ("a", "b", "c")  # few tags, so they nest inside themselves
ATTRIBUTE_NAMES = ("k", "m")
VALUES = ("1", "2", "3", "x")
BLOCK = "#block"

_attributes = st.dictionaries(
    st.sampled_from(ATTRIBUTE_NAMES), st.sampled_from(VALUES), max_size=2
)
_leaf = st.tuples(
    st.sampled_from(TAGS), _attributes, st.none() | st.sampled_from(VALUES)
)
_block = st.just((BLOCK, {}, None))


def _specs(leaves):
    return st.recursive(
        leaves,
        lambda children: st.tuples(
            st.sampled_from(TAGS),
            _attributes,
            st.lists(children, min_size=1, max_size=4),
        ),
        max_leaves=40,
    )


def _roots(leaves):
    return st.lists(_specs(leaves), min_size=1, max_size=3).map(
        lambda children: ("r", {}, children)
    )


PLAIN_TREES = _roots(_leaf)
TREES_WITH_BLOCKS = _roots(_leaf | _block)


def build_tree(spec):
    """An un-numbered node tree from a ``(tag, attributes, content)`` spec."""
    tag, attributes, content = spec
    if tag == BLOCK:
        return EncryptedBlockNode(7, b"opaque")
    element = Element(tag)
    for name, value in sorted(attributes.items()):
        element.set_attribute(name, value)
    if isinstance(content, list):
        for child in content:
            element.append(build_tree(child))
    elif content is not None:
        element.append(Text(content))
    return element


# Every axis, weighted away from the two that empty most contexts.
AXES = sorted(ast.ALL_AXES - {ast.AXIS_NAMESPACE, ast.AXIS_ATTRIBUTE}) * 3 + [
    ast.AXIS_NAMESPACE,
    ast.AXIS_ATTRIBUTE,
    ast.AXIS_ATTRIBUTE,
]
# After an attribute step the context holds attributes, where the oracle's
# sibling and order axes are known to be wrong (see its docstring).
_NOT_FROM_ATTRIBUTES = {
    ast.AXIS_FOLLOWING,
    ast.AXIS_PRECEDING,
    ast.AXIS_FOLLOWING_SIBLING,
    ast.AXIS_PRECEDING_SIBLING,
}
POSITIONS = ("[1]", "[2]", "[3]", "[last()]", "[position()=2]")
OPERATORS = ("=", "!=", "<", ">=")


_DOWNWARD = [
    ast.AXIS_CHILD,
    ast.AXIS_DESCENDANT,
    ast.AXIS_DESCENDANT_OR_SELF,
    ast.AXIS_SELF,
]


@st.composite
def location_paths(draw, max_steps=4, with_predicates=True):
    """A path as text: every axis, ``/`` and ``//``, up to two predicates a step."""
    text = draw(st.sampled_from(("", "/", "//", "//", "//")))
    on_attributes = False
    for index in range(draw(st.integers(1, max_steps))):
        if index:
            text += draw(st.sampled_from(("/", "/", "//")))
        if text in ("", "/"):
            # From the top only the downward axes lead anywhere, and most
            # paths should find something.
            axes = _DOWNWARD
        elif on_attributes:
            axes = [a for a in AXES if a not in _NOT_FROM_ATTRIBUTES]
        else:
            axes = AXES
        axis = draw(st.sampled_from(axes))
        if axis == ast.AXIS_ATTRIBUTE:
            test = draw(st.sampled_from(ATTRIBUTE_NAMES + ("*",)))
        else:
            test = draw(st.sampled_from(TAGS + ("*", "*")))
        on_attributes = axis == ast.AXIS_ATTRIBUTE or (
            on_attributes and axis == ast.AXIS_SELF
        )
        text += f"{axis}::{test}"
        if with_predicates:
            for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2)))):
                text += draw(_predicates())
    return text


@st.composite
def _predicates(draw):
    kind = draw(st.sampled_from(("position", "exists", "value", "self")))
    if kind == "position":
        return draw(st.sampled_from(POSITIONS))
    literal = draw(st.sampled_from(("1", "2", "'x'")))
    operator = draw(st.sampled_from(OPERATORS))
    if kind == "self":
        return f"[.{operator}{literal}]"
    inner = draw(location_paths(max_steps=2, with_predicates=False))
    if kind == "exists":
        return f"[{inner}]"
    return f"[{inner}{operator}{literal}]"


@settings(max_examples=400, deadline=None)
@given(spec=PLAIN_TREES, query=location_paths())
def test_generated_paths_on_numbered_documents(spec, query):
    document = Document(build_tree(spec))
    path = parse_xpath(query)
    assert_same_nodes(
        evaluate(document, path), oracle_answer(oracle.evaluate, document, path), query
    )


@settings(max_examples=300, deadline=None)
@given(spec=PLAIN_TREES, query=location_paths(), pick=st.integers(0, 10**6))
def test_generated_paths_on_unnumbered_fragments(spec, query, pick):
    root = build_tree(spec)
    elements = [n for n in root.iter() if isinstance(n, Element)]
    anchor = elements[pick % len(elements)]
    path = parse_xpath(query)
    actual = evaluate_on_element(anchor, path)
    assert all(node.node_id == -1 for node in root.iter())
    assert_same_nodes(
        actual,
        in_tree_order(root, oracle_answer(oracle.evaluate_on_element, anchor, path)),
        query,
    )


@settings(max_examples=200, deadline=None)
@given(spec=PLAIN_TREES, query=location_paths(), pick=st.integers(0, 10**6))
def test_generated_paths_on_detached_numbered_subtrees(spec, query, pick):
    """A subtree cut out of a document: ids in order, but not starting at 0."""
    document = Document(build_tree(spec))
    elements = [n for n in document.root.iter() if isinstance(n, Element)]
    subtree = elements[pick % len(elements)]
    subtree.detach()
    path = parse_xpath(query)
    assert_same_nodes(
        evaluate_on_element(subtree, path),
        oracle_answer(oracle.evaluate_on_element, subtree, path),
        query,
    )


@settings(max_examples=200, deadline=None)
@given(spec=PLAIN_TREES, extra=_specs(_leaf), query=location_paths())
def test_generated_paths_on_stale_numbering(spec, extra, query):
    """Grown since it was numbered: the answer is still exact and in order."""
    document = Document(build_tree(spec))
    document.root.insert(0, build_tree(extra))
    path = parse_xpath(query)
    assert_same_nodes(
        evaluate(document, path),
        in_tree_order(document.root, oracle_answer(oracle.evaluate, document, path)),
        query,
    )


@settings(max_examples=300, deadline=None)
@given(spec=TREES_WITH_BLOCKS, query=location_paths())
def test_generated_paths_around_encrypted_blocks(spec, query):
    document = Document(build_tree(spec))
    path = parse_xpath(query)
    actual = evaluate(document, path)
    assert_same_nodes(actual, oracle_answer(oracle.evaluate, document, path), query)
    assert not any(isinstance(node, EncryptedBlockNode) for node in actual)
