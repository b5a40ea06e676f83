"""Set-at-a-time evaluation of XPath over the document model.

This evaluator is the semantics reference for the whole reproduction: the
server-side structural-join pipeline is tested against it, the client's
post-processor *is* it, and the paper's correctness contract

    Q(D) == Q(decrypt(Qs(encrypt(D))))

is checked with this evaluator supplying both sides.

Semantics follow XPath 1.0 restricted to our fragment:

* the principal node type of every non-attribute axis is *element*, so name
  tests and ``*`` never select text nodes;
* a positional predicate sees the candidates of *one* context node, in the
  axis's own direction (reverse document order on ``ancestor``,
  ``preceding`` and ``preceding-sibling``);
* comparisons are numeric when both operands parse as floats and string
  (lexicographic) otherwise, matching the behaviour the paper's value
  predicates need (ages, coverages, policy numbers).

Encrypted-block placeholders are opaque: they have no children and match no
name test, which models the server's view of a hosted database.

Each axis has one kernel (``_SET_AXES``), and every step runs it: it maps
a duplicate-free context *set* to a duplicate-free result in time linear in
the context plus the nodes it touches — never context × document.  A
positional step runs the same kernel once per context node, on that node
alone, so its predicate counts in the node's own candidate list.  The order
axes and nested ``descendant`` contexts get there through
:class:`~repro.xmldb.node.DocumentOrder`, where a subtree is one range of
element ranks: it is the geometry §5.1 gives the server on DSI intervals
(``following`` ⇔ ``e.low > t.high``), read off pre-order ranks instead.
The table is built once per document and only when such a step asks for
it; child, attribute, parent, sibling and ancestor steps work on the tree
alone.  ``tests/xpath_evaluator_oracle.py`` is a slow per-node tree walk
kept as the differential oracle.
"""

from __future__ import annotations

from operator import attrgetter, eq, ge, gt, le, lt, ne
from typing import Callable, Optional, Union

from repro.xmldb.node import (
    Attribute,
    Document,
    DocumentOrder,
    Element,
    Node,
)
from repro.xpath import ast
from repro.xpath.parser import parse_xpath

PathLike = Union[str, ast.LocationPath]
NodeTest = Callable[[Node], bool]


def evaluate(document: Document, path: PathLike) -> list[Node]:
    """Evaluate an absolute or relative path against a document.

    Relative paths are evaluated with the document root as context node
    (matching how the paper's relative SC paths are used once anchored).
    Results are returned in document order without duplicates.
    """
    return _Evaluation(document.root, document).answer(_as_path(path))


def evaluate_on_element(context: Element, path: PathLike) -> list[Node]:
    """Evaluate a (typically relative) path with ``context`` as the anchor.

    Absolute paths are resolved against the tree root that ``context``
    belongs to, per XPath.
    """
    return _Evaluation(context, None).answer(_as_path(path))


def matches(document: Document, path: PathLike, node: Node) -> bool:
    """True if ``node`` is in the answer of ``path`` on ``document``."""
    return any(result is node for result in evaluate(document, path))


def _as_path(path: PathLike) -> ast.LocationPath:
    if isinstance(path, ast.LocationPath):
        return path
    return parse_xpath(path)


class _DocumentContext:
    """Stand-in for the XPath document node above the root element.

    Shaped like a node with one child and no value, so the axes that lead
    anywhere from it (``_DOCUMENT_NODE_AXES``) need no special case; the
    root element's own ``parent`` stays ``None``.
    """

    __slots__ = ("root", "children")

    def __init__(self, root: Node) -> None:
        self.root = root
        self.children = (root,)

    def text_value(self) -> None:
        return None


#: The only axes that lead anywhere from the document node.
_DOCUMENT_NODE_AXES = frozenset(
    {
        ast.AXIS_CHILD,
        ast.AXIS_DESCENDANT,
        ast.AXIS_DESCENDANT_OR_SELF,
        ast.AXIS_SELF,
    }
)

#: Axes whose proximity order is reverse document order (XPath 1.0 §2.4).
_REVERSE_AXES = frozenset(
    {
        ast.AXIS_PARENT,
        ast.AXIS_ANCESTOR,
        ast.AXIS_ANCESTOR_OR_SELF,
        ast.AXIS_PRECEDING,
        ast.AXIS_PRECEDING_SIBLING,
    }
)

#: Axes that take one node to a set in which no node contains another.
_FLAT_AXES = frozenset(
    {
        ast.AXIS_CHILD,
        ast.AXIS_SELF,
        ast.AXIS_PARENT,
        ast.AXIS_ATTRIBUTE,
        ast.AXIS_FOLLOWING_SIBLING,
        ast.AXIS_PRECEDING_SIBLING,
        ast.AXIS_NAMESPACE,
    }
)

# What a step knows about the list it hands on.  Every list is free of
# duplicates; ``_ORDERED`` adds document order, ``_FLAT`` adds that no node
# is an ancestor of another — which is what keeps the children of an
# ordered context ordered without comparing a single rank.
_ANY, _ORDERED, _FLAT = 0, 1, 2


class _Evaluation:
    """One tree being queried: where it starts and, lazily, its geometry."""

    __slots__ = ("_anchor", "_document", "_root", "_order")

    def __init__(self, anchor: Node, document: Optional[Document]) -> None:
        self._anchor = anchor
        self._document = document
        self._root: Optional[Node] = None
        self._order: Optional[DocumentOrder] = None

    def answer(self, path: ast.LocationPath) -> list[Node]:
        nodes, level = self.select(self._anchor, path)
        if level == _ANY and len(nodes) > 1:
            nodes.sort(key=self._sort_key(nodes))
        return nodes

    def root(self) -> Node:
        if self._root is None:
            if self._document is not None:
                self._root = self._document.root
            else:
                root = self._anchor
                while root.parent is not None:
                    root = root.parent
                self._root = root
        return self._root

    def order(self) -> DocumentOrder:
        if self._order is None:
            if self._document is not None:
                self._order = self._document.order()
            else:
                self._order = DocumentOrder(self.root())
        return self._order

    def _sort_key(self, nodes: list[Node]) -> Callable[[Node], object]:
        # Sorting a finished answer trusts ``node_id`` as it always has; only
        # nodes that were never numbered send it to the rank table.
        if all(node.node_id >= 0 for node in nodes):
            return attrgetter("node_id")
        rank = self.order().rank

        def position(node: Node) -> tuple[int, int]:
            if isinstance(node, Attribute):
                owner = node.parent
                return rank(owner), 1 + owner.attributes.index(node)
            return rank(node), 0

        return position

    # ------------------------------------------------------------------
    # The step pipeline
    # ------------------------------------------------------------------
    def select(
        self, anchor: Node, path: ast.LocationPath
    ) -> tuple[list[Node], int]:
        """Run ``path`` from ``anchor``; the result and what is known of it.

        For an absolute path the *document node* is the initial context, so
        ``/hospital`` selects the root itself.
        """
        context: list[Node] = [
            _DocumentContext(self.root()) if path.absolute else anchor
        ]
        level = _FLAT
        steps = path.steps
        index = 0
        while index < len(steps) and context:
            step = steps[index]
            index += 1
            if (
                index < len(steps)
                and _is_double_slash(step)
                and steps[index].axis == ast.AXIS_CHILD
                and not _is_positional(steps[index])
            ):
                # ``//T`` is ``descendant::T``: one walk instead of every
                # element's child list.  (``//T[n]`` is not — its position
                # counts among siblings.)  From the document node the
                # wildcard step yields elements only, so it is the root
                # element's descendants that are reached.
                step = ast.Step(
                    ast.AXIS_DESCENDANT,
                    steps[index].test,
                    steps[index].predicates,
                )
                index += 1
                if context[0].__class__ is _DocumentContext:
                    context = [context[0].root]
            context, level = self._apply_step(context, level, step)
        if context and context[0].__class__ is _DocumentContext:
            # '/' and '/.' answer with the root element.
            context = [context[0].root]
        return context, level

    def _apply_step(
        self, context: list[Node], level: int, step: ast.Step
    ) -> tuple[list[Node], int]:
        axis = step.axis
        if (
            context[0].__class__ is _DocumentContext
            and axis not in _DOCUMENT_NODE_AXES
        ):
            return [], _FLAT
        test = _node_test(step)
        if _is_positional(step):
            return self._step_per_node(context, axis, test, step.predicates)
        if len(context) == 1:
            # From one node every axis answers in order, and flat on
            # ``_FLAT_AXES``, whatever the kernel could prove of it.
            nodes = _SET_AXES[axis](self, context, _FLAT, test)[0]
            level = _FLAT if axis in _FLAT_AXES else _ORDERED
        else:
            nodes, level = _SET_AXES[axis](self, context, level, test)
        for predicate in step.predicates:
            nodes = self._filter(nodes, predicate.expr)
        return nodes, level

    def _step_per_node(
        self,
        context: list[Node],
        axis: str,
        test: NodeTest,
        predicates: tuple[ast.Predicate, ...],
    ) -> tuple[list[Node], int]:
        """One kernel per axis; a positional step runs it per context node.

        The predicates count among one node's candidates in the axis's
        proximity order, so a reverse axis's result is turned round first.
        """
        kernel = _SET_AXES[axis]
        reverse = axis in _REVERSE_AXES
        output: list[Node] = []
        seen: set[int] = set()
        for node in context:
            candidates = kernel(self, [node], _FLAT, test)[0]
            if reverse:
                candidates.reverse()
            for predicate in predicates:
                candidates = self._filter(candidates, predicate.expr)
            if len(context) == 1:
                if reverse:
                    candidates.reverse()
                return candidates, _FLAT if axis in _FLAT_AXES else _ORDERED
            for candidate in candidates:
                if id(candidate) not in seen:
                    seen.add(id(candidate))
                    output.append(candidate)
        return output, _ANY

    # ------------------------------------------------------------------
    # One kernel per axis: a context set to the nodes it reaches
    # ------------------------------------------------------------------
    def _set_child(self, context, level, test):
        nodes = [c for node in context for c in node.children if test(c)]
        return nodes, _FLAT if level == _FLAT else _ANY

    def _set_attribute(self, context, level, test):
        nodes = [
            a
            for node in context
            if isinstance(node, Element)
            for a in node.attributes
            if test(a)
        ]
        return nodes, _FLAT if level else _ANY

    def _set_self(self, context, level, test):
        return [node for node in context if test(node)], level

    def _set_parent(self, context, level, test):
        nodes: list[Node] = []
        seen: set[int] = set()
        for node in context:
            parent = node.parent
            if parent is not None and id(parent) not in seen:
                seen.add(id(parent))
                if test(parent):
                    nodes.append(parent)
        return nodes, _ANY

    def _set_descendant(self, context, level, test, or_self=False):
        nodes: list[Node] = []
        if level == _FLAT:
            # No context node is inside another: the subtrees are disjoint
            # and already in order.
            for node in context:
                if or_self and test(node):
                    nodes.append(node)
                nodes.extend(
                    [n for n in _descendant_elements(node) if test(n)]
                )
            return nodes, _ORDERED
        order = self.order()
        rank, ends, elements = order.rank, order.ends, order.elements
        context = [node for node in context if isinstance(node, Element)]
        if level == _ANY:
            context.sort(key=rank)
        covered = -1
        for node in context:
            first = rank(node)
            if first <= covered:
                continue  # inside a subtree that is already expanded
            covered = ends[first]
            if not or_self:
                first += 1
            nodes.extend([n for n in elements[first : covered + 1] if test(n)])
        return nodes, _ORDERED

    def _set_descendant_or_self(self, context, level, test):
        return self._set_descendant(context, level, test, or_self=True)

    def _set_ancestor(self, context, level, test, or_self=False):
        nodes: list[Node] = []
        seen: set[int] = set()
        for node in context:
            # Climb only as far as the first node some earlier climb passed:
            # everything above it is already in.  In an ordered context the
            # new stretch lies after all of those, so appending keeps order.
            chain: list[Node] = []
            current = node if or_self else node.parent
            while current is not None and id(current) not in seen:
                seen.add(id(current))
                chain.append(current)
                current = current.parent
            nodes.extend([a for a in reversed(chain) if test(a)])
        return nodes, _ORDERED if level else _ANY

    def _set_ancestor_or_self(self, context, level, test):
        return self._set_ancestor(context, level, test, or_self=True)

    def _set_siblings(self, context, level, test, following):
        members = {id(node) for node in context}
        nodes: list[Node] = []
        parents: set[int] = set()
        for node in context:
            parent = node.parent
            if (
                parent is None
                or id(parent) in parents
                or isinstance(node, Attribute)
            ):
                continue
            # One pass per parent: its children after the first context
            # child, or before the last one.
            parents.add(id(parent))
            children = parent.children
            if following:
                at = 0
                while id(children[at]) not in members:
                    at += 1
                siblings = children[at + 1 :]
            else:
                at = len(children) - 1
                while id(children[at]) not in members:
                    at -= 1
                siblings = children[:at]
            nodes.extend([s for s in siblings if test(s)])
        return nodes, _FLAT if len(parents) == 1 else _ANY

    def _set_following_sibling(self, context, level, test):
        return self._set_siblings(context, level, test, following=True)

    def _set_preceding_sibling(self, context, level, test):
        return self._set_siblings(context, level, test, following=False)

    def _set_following(self, context, level, test):
        # Whatever follows any context node follows the one whose subtree
        # ends first: one slice.
        after = min(self._following_from(node) for node in context)
        return [n for n in self.order().elements[after:] if test(n)], _ORDERED

    def _set_preceding(self, context, level, test):
        # Whatever precedes any context node precedes the last of them
        # (an ancestor of the last one contains the others or precedes
        # none of them): one slice, less that node's ancestors.
        last = max(context, key=self._preceding_until)
        ancestors = {id(a) for a in last.ancestors()}
        nodes = [
            n
            for n in self.order().elements[: self._preceding_until(last)]
            if test(n) and id(n) not in ancestors
        ]
        return nodes, _ORDERED

    def _following_from(self, node: Node) -> int:
        """Rank of the first element after ``node`` and its subtree."""
        order = self.order()
        if isinstance(node, Attribute):
            # An attribute sits between its owner's tag and first child.
            return order.rank(node.parent) + 1
        return order.ends[order.rank(node)] + 1

    def _preceding_until(self, node: Node) -> int:
        """Rank bounding the elements before ``node`` (ancestors included)."""
        if isinstance(node, Attribute):
            node = node.parent
        return self.order().rank(node)

    def _set_namespace(self, context, level, test):
        return [], _FLAT

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def _filter(
        self, candidates: list[Node], expr: ast.PredicateExpr
    ) -> list[Node]:
        if isinstance(expr, ast.Position):
            if expr.is_last:
                return candidates[-1:]
            return candidates[expr.index - 1 : expr.index]
        if isinstance(expr, ast.Exists):
            return [
                node
                for node in candidates
                if self._predicate_nodes(node, expr.path)
            ]
        if isinstance(expr, ast.Comparison):
            holds = comparator(expr.op, expr.literal)
            return [
                node
                for node in candidates
                if self._comparison_holds(node, expr.path, holds)
            ]
        raise TypeError(f"unknown predicate expression {expr!r}")

    def _predicate_nodes(
        self, node: Node, path: ast.LocationPath
    ) -> list[Node]:
        if isinstance(node, Element):
            return self.select(node, path)[0]
        if isinstance(node, Attribute) and not path.steps:
            return [node]
        return []

    def _comparison_holds(
        self, node: Node, path: ast.LocationPath, holds: Callable[[str], bool]
    ) -> bool:
        # The path in a comparison may be empty-ish ('.'), addressing the
        # context node's own value.
        if path.is_self:
            targets: list[Node] = [node]
        else:
            targets = self._predicate_nodes(node, path)
        for target in targets:
            value = target.text_value()
            if value is not None and holds(value):
                return True
        return False


_SET_AXES = {
    ast.AXIS_CHILD: _Evaluation._set_child,
    ast.AXIS_ATTRIBUTE: _Evaluation._set_attribute,
    ast.AXIS_SELF: _Evaluation._set_self,
    ast.AXIS_PARENT: _Evaluation._set_parent,
    ast.AXIS_DESCENDANT: _Evaluation._set_descendant,
    ast.AXIS_DESCENDANT_OR_SELF: _Evaluation._set_descendant_or_self,
    ast.AXIS_ANCESTOR: _Evaluation._set_ancestor,
    ast.AXIS_ANCESTOR_OR_SELF: _Evaluation._set_ancestor_or_self,
    ast.AXIS_FOLLOWING_SIBLING: _Evaluation._set_following_sibling,
    ast.AXIS_PRECEDING_SIBLING: _Evaluation._set_preceding_sibling,
    ast.AXIS_FOLLOWING: _Evaluation._set_following,
    ast.AXIS_PRECEDING: _Evaluation._set_preceding,
    ast.AXIS_NAMESPACE: _Evaluation._set_namespace,
}


def _descendant_elements(node: Node) -> list[Node]:
    """The elements strictly below ``node``, in document order.

    Text and block placeholders are leaves no name test selects, so they
    are not worth handing to one.
    """
    nodes: list[Node] = []
    stack = list(reversed(node.children))
    while stack:
        current = stack.pop()
        if isinstance(current, Element):
            nodes.append(current)
            if current.children:
                stack.extend(reversed(current.children))
    return nodes


def _node_test(step: ast.Step) -> NodeTest:
    """The step's node test as a predicate over candidate nodes."""
    name = step.test.name
    wildcard = step.test.is_wildcard
    if step.axis == ast.AXIS_ATTRIBUTE:
        if wildcard:
            return _is_attribute
        return lambda node: isinstance(node, Attribute) and node.name == name
    if wildcard:
        if step.axis in (ast.AXIS_SELF, ast.AXIS_PARENT):
            # '.' and '..' keep whatever node kind the context had.
            return _any_node
        return _is_element
    return lambda node: isinstance(node, Element) and node.tag == name


def _any_node(node: Node) -> bool:
    return True


def _is_element(node: Node) -> bool:
    return isinstance(node, Element)


def _is_attribute(node: Node) -> bool:
    return isinstance(node, Attribute)


def _is_positional(step: ast.Step) -> bool:
    return any(isinstance(p.expr, ast.Position) for p in step.predicates)


def _is_double_slash(step: ast.Step) -> bool:
    return (
        step.axis == ast.AXIS_DESCENDANT_OR_SELF
        and step.test.is_wildcard
        and not step.predicates
    )


def comparator(op: str, literal: str) -> Callable[[str], bool]:
    """``value op literal`` as a test on ``value``, the literal classified once.

    The rule is XPath-flavoured coercion: a numeric comparison when both
    sides parse as floats, a string comparison otherwise.  A literal that
    is no number therefore makes every comparison a string one, and no
    value is parsed at all; a numeric literal is parsed here, once.  The
    server's join and this evaluator test every candidate through one.
    """
    apply = _OPERATORS.get(op)
    if apply is None:
        raise ValueError(f"unsupported operator {op!r}")
    number = _to_number(literal)
    if number is None:
        return lambda value: apply(value, literal)

    def holds(value: str) -> bool:
        value_number = _to_number(value)
        if value_number is None:
            return apply(value, literal)
        return apply(value_number, number)

    return holds


def compare_values(left: str, op: str, right: str) -> bool:
    """``left op right`` under :func:`comparator`'s rule, for one pair."""
    return comparator(op, right)(left)


def _to_number(value: str) -> float | None:
    try:
        return float(value)
    except ValueError:
        return None


_OPERATORS: dict[str, Callable[[object, object], bool]] = {
    "=": eq,
    "!=": ne,
    "<": lt,
    "<=": le,
    ">": gt,
    ">=": ge,
}
