"""Interval algebra and lowering for the full thirteen-axis XPath set.

The paper's twig compiler (:mod:`repro.xpath.compiler`) covers the
downward fragment: child / descendant / descendant-or-self / attribute
edges.  DSI intervals carry strictly more information than that — the
``(low, high)`` pair of an entry, together with the precomputed parent
pointers, decides *every* XPath 1.0 axis relation:

=====================  =====================================================
axis ``y`` of ``x``    interval predicate over DSI entries
=====================  =====================================================
descendant             ``x.low < y.low`` and ``y.high < x.high``
child                  descendant and ``parent(y) is x``
ancestor               ``y.low < x.low`` and ``x.high < y.high``
parent                 ``y is parent(x)``
self                   ``y is x``
descendant-or-self     descendant or self
ancestor-or-self       ancestor or self
following              ``y.low > x.high``
preceding              ``y.high < x.low``
following-sibling      ``parent(y) is parent(x)`` and ``y.low > x.high``
preceding-sibling      ``parent(y) is parent(x)`` and ``y.high < x.low``
attribute              child restricted to attribute entries
namespace              empty in this data model (documents carry none)
=====================  =====================================================

Entries are *grouped* (one interval can cover a run of adjacent same-tag
siblings), so the matchers evaluate relaxed threshold forms of the order
predicates — e.g. *following* keeps ``y`` when ``y.high > min(x.low)``
over the anchor set.  Every exact instance-level pair satisfies the
relaxed entry-level test (entry bounds contain instance bounds), so the
server's match sets are sound supersets and the client restores
exactness by re-running the original query over the pruned document,
exactly as in the downward-only protocol.

:func:`compile_axis_pattern` lowers an arbitrary location path into the
same :class:`~repro.xpath.compiler.PatternTree` shape the twig matchers
consume, generalizing the edge vocabulary to the full axis set.  Reverse
axes need no special output handling: ``//b/ancestor::x`` becomes the
pattern ``b → x`` with an *ancestor* edge, the bottom-up phase filters
``b`` by the inverse (descendant) test and the top-down phase keeps the
``x`` entries with a surviving ``b`` strictly inside them.  The compiler
also computes the **ship set** — every pattern node whose full surviving
match set must be shipped for the client to finish exactly — replacing
the legacy single-ship-node rule, which is only sufficient when all
edges point downward.

Degenerate shapes no pattern can express (relative paths, a reverse or
order axis as the very first step, positional predicates inside
non-downward predicate branches, …) raise :class:`ResidualRequired`;
the planner then falls back to :func:`residual_pattern`, which ships
the whole document through the standard sealed-fragment path — still a
typed server-side plan, never the naive protocol.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.xpath import ast
from repro.xpath.compiler import PatternNode, PatternTree, UnsupportedQuery


class ResidualRequired(UnsupportedQuery):
    """The query needs the whole document client-side (residual plan)."""


#: Pattern edges whose matches stay inside the pattern parent's subtree
#: closure — a ship node above them covers them.  ``self`` qualifies: its
#: matches are the parent's own matches.
DOWNWARD_EDGES = frozenset(
    {
        "child",
        "descendant",
        "descendant-or-self",
        "attribute",
        "attribute-descendant",
        "self",
        "root-child",
        "root-descendant",
    }
)

#: Pattern edges that climb toward the root.
UPWARD_EDGES = frozenset({"parent", "ancestor", "ancestor-or-self"})

#: Pattern edges that move sideways in document order.
ORDER_EDGES = frozenset(
    {"following", "preceding", "following-sibling", "preceding-sibling"}
)

#: The rewrite at the heart of the engine: a pattern edge is *checked*
#: bottom-up with its inverse axis (filter the parent's candidates by the
#: child's matches) and top-down with the forward axis, so reverse axes
#: run on the same two-phase join as the downward twig.
INVERSE_EDGE = {
    "child": "parent",
    "attribute": "parent",
    "descendant": "ancestor",
    "attribute-descendant": "ancestor",
    "descendant-or-self": "ancestor-or-self",
    "self": "self",
    "parent": "child",
    "ancestor": "descendant",
    "ancestor-or-self": "descendant-or-self",
    "following": "preceding",
    "preceding": "following",
    "following-sibling": "preceding-sibling",
    "preceding-sibling": "following-sibling",
}


# ----------------------------------------------------------------------
# Interval-algebra threshold helpers
# ----------------------------------------------------------------------


def order_bounds(
    intervals: Iterable[tuple[float, float]],
) -> Optional[tuple[float, float]]:
    """``(min low, max high)`` over an interval set, or None when empty.

    These two scalars decide the relaxed *following*/*preceding* tests:
    ``y`` can follow some anchor iff ``y.high > min_low`` and can precede
    some anchor iff ``y.low < max_high``.
    """
    min_low: Optional[float] = None
    max_high: Optional[float] = None
    for low, high in intervals:
        if min_low is None or low < min_low:
            min_low = low
        if max_high is None or high > max_high:
            max_high = high
    if min_low is None or max_high is None:
        return None
    return (min_low, max_high)


def sibling_bounds(
    items: Iterable[tuple[object, float, float]],
) -> dict[object, tuple[float, float]]:
    """Per-parent ``(min low, max high)`` from (parent, low, high) triples.

    The sibling-axis tests are the order-axis tests scoped to one parent:
    ``y`` can follow a sibling anchor iff ``y.high > bounds[parent].low``.
    """
    bounds: dict[object, tuple[float, float]] = {}
    for parent, low, high in items:
        current = bounds.get(parent)
        if current is None:
            bounds[parent] = (low, high)
        else:
            bounds[parent] = (min(current[0], low), max(current[1], high))
    return bounds


def can_follow(low: float, high: float, min_anchor_low: float) -> bool:
    """Relaxed *following* membership for a (possibly grouped) entry."""
    return high > min_anchor_low


def can_precede(low: float, high: float, max_anchor_high: float) -> bool:
    """Relaxed *preceding* membership for a (possibly grouped) entry."""
    return low < max_anchor_high


# ----------------------------------------------------------------------
# Generalized lowering: any location path -> PatternTree + ship set
# ----------------------------------------------------------------------


def compile_axis_pattern(path: ast.LocationPath) -> PatternTree:
    """Lower an absolute location path over the full axis vocabulary."""
    if not path.absolute:
        raise ResidualRequired(
            "relative query evaluates against the whole document"
        )
    spine: list[PatternNode] = []
    _compile_axis_steps(path.steps, spine, at_root=True)
    if not spine:
        raise ResidualRequired("query selects the document node itself")
    output = spine[-1]
    output.is_output = True
    tree = PatternTree(
        roots=[spine[0]], output=output, spine_root=spine[0]
    )
    tree.ship_roots = _ship_set(spine)
    return tree


def _compile_axis_steps(
    steps: tuple[ast.Step, ...],
    spine: list[PatternNode],
    at_root: bool,
) -> None:
    """Materialize pattern nodes for a step chain onto ``spine``."""
    pending_descendant = False

    def attach(node: PatternNode) -> None:
        if not spine:
            if at_root:
                node.axis = _root_edge(node.axis)
        else:
            spine[-1].children.append(node)
        spine.append(node)

    def materialize_pending() -> None:
        # A '//' that cannot fold into the next edge becomes an explicit
        # wildcard descendant-or-self node (from the document node that
        # set is simply "every element").
        attach(PatternNode(test="*", axis="descendant-or-self"))

    for step in steps:
        is_bare_wildcard = step.test.is_wildcard and not step.predicates
        if step.axis == ast.AXIS_DESCENDANT_OR_SELF and is_bare_wildcard:
            pending_descendant = True
            continue
        if step.axis == ast.AXIS_SELF and is_bare_wildcard:
            if pending_descendant:
                # 'a//.' — the trailing '.' forces the '//' to surface.
                materialize_pending()
                pending_descendant = False
            continue

        if step.axis == ast.AXIS_NAMESPACE:
            raise ResidualRequired("namespace axis (no namespace nodes)")

        if step.axis == ast.AXIS_CHILD:
            axis = "descendant" if pending_descendant else "child"
            test = step.test.name
        elif step.axis == ast.AXIS_DESCENDANT:
            axis = "descendant"
            test = step.test.name
        elif step.axis == ast.AXIS_DESCENDANT_OR_SELF:
            # dos ∘ dos = dos, so a pending '//' folds in unchanged.
            axis = "descendant-or-self"
            test = step.test.name
        elif step.axis == ast.AXIS_ATTRIBUTE:
            axis = (
                "attribute-descendant" if pending_descendant else "attribute"
            )
            test = f"@{step.test.name}"
        else:
            # Upward, order and named-self axes: a pending '//' cannot
            # fold into the edge, so it materializes first.
            if pending_descendant:
                materialize_pending()
            axis = step.axis
            test = step.test.name
        pending_descendant = False

        if not spine and at_root and axis == "attribute-descendant":
            # '//@x': anchor the attribute edge at an explicit wildcard
            # element node (every attribute's owner is an element).
            materialize_pending()
            axis = "attribute"
        if not spine and at_root and axis not in (
            "child",
            "descendant",
            "descendant-or-self",
        ):
            # From the virtual document node only downward element steps
            # select anything a pattern can anchor ('/..', '/self::x',
            # '/following::x', '/@x' are degenerate).
            raise ResidualRequired(
                f"axis {step.axis!r} from the document node"
            )
        if axis in ORDER_EDGES and spine and spine[-1].is_attribute:
            # Order axes anchored at attribute nodes have evaluator
            # semantics the interval relaxation does not model.
            raise ResidualRequired(
                f"axis {step.axis!r} anchored at an attribute"
            )

        node = PatternNode(test=test, axis=axis)
        attach(node)
        _attach_axis_predicates(node, step.predicates)

    if pending_descendant:
        materialize_pending()


def _root_edge(axis: str) -> str:
    if axis in ("descendant", "descendant-or-self"):
        # From the document node descendant-or-self::x is any x at all
        # (the document node never matches an element test).
        return "root-descendant"
    return "root-child"


def _attach_axis_predicates(
    node: PatternNode, predicates: tuple[ast.Predicate, ...]
) -> None:
    if any(isinstance(p.expr, ast.Position) for p in predicates):
        # Positional steps lower to a bare name-test node: XPath applies
        # predicates sequentially, so any server-side narrowing of the
        # candidate list (even by another predicate of the same step)
        # could shift positions in the list the client indexes.  The
        # complete per-parent candidate set ships instead.
        node.position_sensitive = True
        return
    for predicate in predicates:
        expr = predicate.expr
        if isinstance(expr, ast.Exists):
            node.children.append(_compile_axis_branch(expr.path))
        elif isinstance(expr, ast.Comparison):
            if _is_self_comparison(expr.path):
                _add_constraint(node, expr)
            else:
                branch = _compile_axis_branch(expr.path)
                leaf = branch
                while leaf.children:
                    leaf = leaf.children[-1]
                _add_constraint(leaf, expr)
                node.children.append(branch)
        else:  # pragma: no cover - parser produces only the above
            raise ResidualRequired(f"unsupported predicate {expr!r}")


def _compile_axis_branch(path: ast.LocationPath) -> PatternNode:
    """Lower a predicate path into a pattern branch.

    Positional predicates inside the branch are *stripped*: dropping a
    filter only relaxes the existence test (sound superset), and the
    client re-evaluates the original predicate over complete shipped
    subtrees.  That re-evaluation is only exact when the branch stays
    inside its holder's fragment, so a branch that both leaves the
    subtree and carries positions is residual.
    """
    if path.absolute:
        raise ResidualRequired(
            "absolute predicate path needs the whole document"
        )
    stripped, had_position = _strip_positions(path)
    branch_spine: list[PatternNode] = []
    _compile_axis_steps(stripped.steps, branch_spine, at_root=False)
    if not branch_spine:
        raise ResidualRequired("empty predicate path")
    branch = branch_spine[0]
    if had_position and not _all_downward(branch):
        raise ResidualRequired(
            "positional predicate on a non-downward branch"
        )
    return branch


def _strip_positions(
    path: ast.LocationPath,
) -> tuple[ast.LocationPath, bool]:
    had_position = False
    steps: list[ast.Step] = []
    for step in path.steps:
        kept = tuple(
            p for p in step.predicates
            if not isinstance(p.expr, ast.Position)
        )
        if len(kept) != len(step.predicates):
            had_position = True
            step = ast.Step(step.axis, step.test, kept)
        steps.append(step)
    return ast.LocationPath(path.absolute, tuple(steps)), had_position


def _is_self_comparison(path: ast.LocationPath) -> bool:
    return (
        not path.absolute
        and len(path.steps) == 1
        and path.steps[0].axis == ast.AXIS_SELF
        and path.steps[0].test.is_wildcard
        and not path.steps[0].predicates
    )


def _add_constraint(node: PatternNode, expr: ast.Comparison) -> None:
    if node.value_constraint is None:
        node.value_constraint = (expr.op, expr.literal)
        return
    # Second constraint on the same node: hang it off a self-edge twin —
    # the matcher intersects the parent's set with the twin's
    # value-filtered set, which is the conjunction.
    twin = PatternNode(test=node.test, axis="self")
    twin.value_constraint = (expr.op, expr.literal)
    node.children.append(twin)


def _all_downward(branch: PatternNode) -> bool:
    return all(n.axis in DOWNWARD_EDGES for n in branch.walk())


# ----------------------------------------------------------------------
# Ship-set selection
# ----------------------------------------------------------------------


def _ship_set(spine: list[PatternNode]) -> list[PatternNode]:
    """Every pattern node whose surviving matches must ship.

    The legacy rule ships one spine node and relies on all deeper
    pattern nodes matching *inside* its fragments.  That containment
    breaks as soon as an edge points upward or sideways, so the axis
    engine ships a union: the spine suffix from the first *interesting*
    node down, plus every node of a predicate branch that leaves its
    holder's subtree.  Interesting means the node carries a constraint
    or branch or positional flag, or sits on a non-downward edge —
    everything above the cut is a pure downward name-test chain the
    client re-verifies from fragment skeletons alone.
    """
    spine_children = {
        id(spine[i]): spine[i + 1] for i in range(len(spine) - 1)
    }

    def branches(node: PatternNode) -> list[PatternNode]:
        onward = spine_children.get(id(node))
        return [c for c in node.children if c is not onward]

    cut = len(spine) - 1
    for index, node in enumerate(spine):
        edge_in = node.axis
        onward = spine_children.get(id(node))
        interesting = (
            node.value_constraint is not None
            or node.position_sensitive
            or bool(branches(node))
            or edge_in not in DOWNWARD_EDGES
            or (onward is not None and onward.axis not in DOWNWARD_EDGES)
        )
        if interesting:
            cut = index
            break

    ship: list[PatternNode] = list(spine[cut:])
    for node in spine:
        for branch in branches(node):
            if not _all_downward(branch):
                ship.extend(branch.walk())
    return ship


# ----------------------------------------------------------------------
# Residual plan
# ----------------------------------------------------------------------


def residual_pattern() -> PatternTree:
    """Ship-the-document plan for queries no pattern can express.

    A single wildcard root-child node matches exactly the document root
    entry, so the server ships one fragment — the whole tree — through
    the standard sealed path (integrity, freshness and leakage
    countermeasures all apply) and the client evaluates the original
    query over it.  Same transfer cost as the naive protocol, but typed,
    counted, and on the hardened wire.
    """
    root = PatternNode(test="*", axis="root-child")
    root.is_output = True
    tree = PatternTree(roots=[root], output=root, spine_root=root)
    tree.ship_roots = [root]
    return tree
