"""The per-node tree-walk XPath evaluator, kept as the differential oracle.

This is ``repro/xpath/evaluator.py`` as it stood before the set-at-a-time
evaluator replaced it: every axis is re-materialised for every context
node, so an order axis costs context × document.  It carries one change —
``_preceding_nodes`` returns reverse document order, so ``preceding::x[1]``
is the nearest one (XPath 1.0 §2.4) — and is otherwise left as it was.
``test_xpath_evaluator_oracle.py`` holds the new evaluator to it, node for
node.  Two things it does that the new one deliberately does not:

* an attribute's ``preceding-sibling`` is every child of its owner and its
  ``following``/``preceding`` are computed as if it sat before/after all of
  them (attributes have no siblings and sit before their owner's children);
* on a tree that was never numbered it returns discovery order rather than
  document order;
* comparing the document node's own value (``/.[.=1]``) is an
  ``AttributeError``; it has no value, so the answer is empty.

Semantics follow XPath 1.0 restricted to our fragment:

* the principal node type of every non-attribute axis is *element*, so name
  tests and ``*`` never select text nodes;
* predicates are applied per context node, so positional predicates see the
  sibling-local candidate list;
* comparisons are numeric when both operands parse as floats and string
  (lexicographic) otherwise.

Encrypted-block placeholders are opaque: no axis traverses into them.
"""

from __future__ import annotations

from typing import Iterable, Union

from repro.xmldb.node import (
    Attribute,
    Document,
    Element,
    EncryptedBlockNode,
    Node,
)
from repro.xpath import ast
from repro.xpath.parser import parse_xpath

PathLike = Union[str, ast.LocationPath]


def evaluate(document: Document, path: PathLike) -> list[Node]:
    """Evaluate an absolute or relative path against a document.

    Relative paths are evaluated with the document root as context node
    (matching how the paper's relative SC paths are used once anchored).
    Results are returned in document order without duplicates.
    """
    parsed = _as_path(path)
    return _evaluate_from(document.root, parsed, is_document_context=True)


def evaluate_on_element(context: Element, path: PathLike) -> list[Node]:
    """Evaluate a (typically relative) path with ``context`` as the anchor.

    Absolute paths are resolved against the tree root that ``context``
    belongs to, per XPath.
    """
    parsed = _as_path(path)
    if parsed.absolute:
        root = context
        while root.parent is not None:
            parent = root.parent
            assert isinstance(parent, Element)
            root = parent
        return _evaluate_from(root, parsed, is_document_context=True)
    return _evaluate_from(context, parsed, is_document_context=False)


def matches(document: Document, path: PathLike, node: Node) -> bool:
    """True if ``node`` is in the answer of ``path`` on ``document``."""
    return any(result is node for result in evaluate(document, path))


def _as_path(path: PathLike) -> ast.LocationPath:
    if isinstance(path, ast.LocationPath):
        return path
    return parse_xpath(path)


def _evaluate_from(
    anchor: Element, path: ast.LocationPath, is_document_context: bool
) -> list[Node]:
    """Run the step pipeline starting from a single anchor node.

    For an absolute path the anchor is the root element and the *document
    node* is the initial context, so ``/hospital`` selects the root itself.
    We model the document node implicitly: the first child-axis step of an
    absolute path tests the root element.
    """
    if path.absolute and is_document_context:
        context: list[Node] = [_DocumentContext(anchor)]
    else:
        context = [anchor]

    for step in path.steps:
        context = _apply_step(context, step)
        if not context:
            break
    return _document_order(context)


class _DocumentContext:
    """Stand-in for the XPath document node above the root element."""

    __slots__ = ("root",)

    def __init__(self, root: Element) -> None:
        self.root = root


def _apply_step(context: list[Node], step: ast.Step) -> list[Node]:
    output: list[Node] = []
    seen: set[int] = set()
    for node in context:
        candidates = [
            candidate
            for candidate in _axis_nodes(node, step.axis)
            if _test_matches(candidate, step)
        ]
        for predicate in step.predicates:
            candidates = _filter_predicate(candidates, predicate)
        for candidate in candidates:
            key = id(candidate)
            if key not in seen:
                seen.add(key)
                output.append(candidate)
    return output


def _axis_nodes(node: Node, axis: str) -> Iterable[Node]:
    if isinstance(node, _DocumentContext):
        # The virtual document node has exactly one child: the root element.
        if axis == ast.AXIS_CHILD:
            return [node.root]
        if axis in (ast.AXIS_DESCENDANT, ast.AXIS_DESCENDANT_OR_SELF):
            return list(node.root.iter())
        if axis == ast.AXIS_SELF:
            return [node]
        return []

    if isinstance(node, EncryptedBlockNode):
        # Opaque: nothing inside an encrypted block is addressable.
        if axis == ast.AXIS_SELF:
            return [node]
        if axis == ast.AXIS_PARENT:
            return [node.parent] if node.parent is not None else []
        if axis == ast.AXIS_ANCESTOR:
            return list(node.ancestors())
        return []

    if axis == ast.AXIS_CHILD:
        return list(node.children)
    if axis == ast.AXIS_DESCENDANT:
        return list(node.descendants())
    if axis == ast.AXIS_DESCENDANT_OR_SELF:
        return list(node.iter())
    if axis == ast.AXIS_SELF:
        return [node]
    if axis == ast.AXIS_PARENT:
        return [node.parent] if node.parent is not None else []
    if axis == ast.AXIS_ANCESTOR:
        return list(node.ancestors())
    if axis == ast.AXIS_ATTRIBUTE:
        if isinstance(node, Element):
            return list(node.attributes)
        return []
    if axis == ast.AXIS_FOLLOWING_SIBLING:
        return list(node.following_siblings())
    if axis == ast.AXIS_PRECEDING_SIBLING:
        return list(node.preceding_siblings())
    if axis == ast.AXIS_ANCESTOR_OR_SELF:
        return [node] + list(node.ancestors())
    if axis == ast.AXIS_FOLLOWING:
        return _following_nodes(node)
    if axis == ast.AXIS_PRECEDING:
        return _preceding_nodes(node)
    if axis == ast.AXIS_NAMESPACE:
        # This data model carries no namespace declarations, so the
        # thirteenth axis is well-defined and empty everywhere.
        return []
    raise ValueError(f"unsupported axis {axis!r}")


def _following_nodes(node: Node) -> list[Node]:
    """XPath ``following``: everything after the subtree, in document order.

    Equivalently (the paper's §5.1 formulation): nodes whose DSI interval
    starts after this node's interval ends.  Computed here structurally:
    the subtrees of all following siblings of the node and of each of its
    ancestors.
    """
    out: list[Node] = []
    current: Node | None = node
    while current is not None:
        for sibling in current.following_siblings():
            out.extend(sibling.iter())
        current = current.parent
    return out


def _preceding_nodes(node: Node) -> list[Node]:
    """XPath ``preceding``: everything before the subtree, minus ancestors.

    Returned nearest first (reverse document order), the order positional
    predicates count in on a reverse axis.
    """
    out: list[Node] = []
    chain: list[Node] = [node] + list(node.ancestors())
    for current in reversed(chain):
        for sibling in reversed(list(current.preceding_siblings())):
            out.extend(sibling.iter())
    out.reverse()
    return out


def _test_matches(node: Node, step: ast.Step) -> bool:
    if step.axis == ast.AXIS_ATTRIBUTE:
        if not isinstance(node, Attribute):
            return False
        return step.test.is_wildcard or node.name == step.test.name
    if step.axis in (ast.AXIS_SELF, ast.AXIS_PARENT) and step.test.is_wildcard:
        # '.' and '..' keep whatever node kind the context had.
        return True
    if not isinstance(node, Element):
        return False
    return step.test.is_wildcard or node.tag == step.test.name


def _filter_predicate(
    candidates: list[Node], predicate: ast.Predicate
) -> list[Node]:
    expr = predicate.expr
    if isinstance(expr, ast.Position):
        if expr.is_last:
            return [candidates[-1]] if candidates else []
        index = expr.index - 1
        return [candidates[index]] if 0 <= index < len(candidates) else []
    if isinstance(expr, ast.Exists):
        return [node for node in candidates if _predicate_nodes(node, expr.path)]
    if isinstance(expr, ast.Comparison):
        return [
            node
            for node in candidates
            if _comparison_holds(node, expr)
        ]
    raise TypeError(f"unknown predicate expression {expr!r}")


def _predicate_nodes(node: Node, path: ast.LocationPath) -> list[Node]:
    if isinstance(node, Element):
        return evaluate_on_element(node, path)
    if isinstance(node, Attribute) and not path.steps:
        return [node]
    return []


def _comparison_holds(node: Node, comparison: ast.Comparison) -> bool:
    # The path in a comparison may be empty-ish ('.'), addressing the
    # context node's own value.
    if _is_self_path(comparison.path):
        targets: list[Node] = [node]
    else:
        targets = _predicate_nodes(node, comparison.path)
    for target in targets:
        value = target.text_value()
        if value is None:
            continue
        if compare_values(value, comparison.op, comparison.literal):
            return True
    return False


def _is_self_path(path: ast.LocationPath) -> bool:
    return (
        not path.absolute
        and len(path.steps) == 1
        and path.steps[0].axis == ast.AXIS_SELF
        and path.steps[0].test.is_wildcard
        and not path.steps[0].predicates
    )


def compare_values(left: str, op: str, right: str) -> bool:
    """Compare two values with XPath-flavoured coercion.

    Numeric comparison when both sides parse as floats; string comparison
    otherwise.  Exposed for reuse by the server-side value-index scan.
    """
    left_num = _to_number(left)
    right_num = _to_number(right)
    if left_num is not None and right_num is not None:
        return _apply_op(left_num, op, right_num)
    return _apply_op(left, op, right)


def _to_number(value: str) -> float | None:
    try:
        return float(value)
    except ValueError:
        return None


def _apply_op(left, op: str, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ValueError(f"unsupported operator {op!r}")


def _document_order(nodes: list[Node]) -> list[Node]:
    """Sort a node list into document order when ids are available.

    Nodes from un-numbered fragments (node_id == -1) keep their discovery
    order, which is already close to document order for our pipelines.
    """
    if any(isinstance(node, _DocumentContext) for node in nodes):
        nodes = [
            node.root if isinstance(node, _DocumentContext) else node
            for node in nodes
        ]
    if all(node.node_id >= 0 for node in nodes):
        return sorted(nodes, key=lambda node: node.node_id)
    return nodes
