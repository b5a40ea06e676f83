"""The one lowering from XPath to a server pattern, over all thirteen axes.

The paper's twig patterns cover the downward fragment: child /
descendant / descendant-or-self / attribute edges.  DSI intervals carry
strictly more information than that — the ``(low, high)`` pair of an
entry, together with the precomputed parent pointers, decides *every*
XPath 1.0 axis relation:

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

:func:`compile_axis_pattern` lowers every location path into a
:class:`~repro.xpath.compiler.PatternTree`; on the downward fragment the
pattern is the paper's twig.  Reverse axes need no special output
handling: ``//b/ancestor::x`` becomes the pattern ``b → x`` with an
*ancestor* edge, the bottom-up phase filters ``b`` by the inverse
(descendant) test and the top-down phase keeps the ``x`` entries with a
surviving ``b`` strictly inside them.  The compiler also computes the
**ship set** — every pattern node whose full surviving match set must be
shipped for the client to finish exactly, none of them reached from
another by downward edges only (see :func:`_ship_set`).

Degenerate shapes no pattern can express (relative paths, a reverse or
order axis as the very first step, positional predicates inside
non-downward predicate branches, …) raise :class:`ResidualRequired`;
the planner then falls back to :func:`residual_pattern`, which ships
the whole document through the standard sealed-fragment path — still a
typed server-side plan.
"""

from __future__ import annotations

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

#: Pattern edges that move sideways in document order.
ORDER_EDGES = frozenset(
    {"following", "preceding", "following-sibling", "preceding-sibling"}
)


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
    return PatternTree(
        roots=[spine[0]], output=output, ship_nodes=_ship_set(spine)
    )


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
            if expr.path.is_self:
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


def _add_constraint(node: PatternNode, expr: ast.Comparison) -> None:
    if node.is_wildcard:
        raise ResidualRequired(
            "value constraints on wildcard nodes are client-only"
        )
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

    The first *interesting* spine node ships: one that carries a
    constraint, a predicate branch or a positional flag, or is entered
    or left by a non-downward edge (the output when none is).  The pure
    downward name-test chain above it the client re-verifies from
    fragment skeletons alone.  Below it, a node entered by a downward
    edge has its survivors inside its pattern parent's fragments, so
    besides that first node only the nodes entered by an upward or order
    edge ship — on the spine or in a predicate branch.  No listed node
    is reached from another by downward edges only, and on the paper's
    downward fragment the set is the one first node.
    """
    branches = [
        [child for child in node.children if child is not onward]
        for node, onward in zip(spine, [*spine[1:], None])
    ]
    cut = len(spine) - 1
    for index, node in enumerate(spine):
        if (
            node.value_constraint is not None
            or node.position_sensitive
            or branches[index]
            or node.axis not in DOWNWARD_EDGES
            or (
                index + 1 < len(spine)
                and spine[index + 1].axis not in DOWNWARD_EDGES
            )
        ):
            cut = index
            break

    below = spine[cut + 1 :]
    for holder in branches:
        for branch in holder:
            below.extend(branch.walk())
    return [
        spine[cut],
        *(node for node in below if node.axis not in DOWNWARD_EDGES),
    ]


# ----------------------------------------------------------------------
# Residual plan
# ----------------------------------------------------------------------


def residual_pattern() -> PatternTree:
    """Ship-the-document plan for queries no pattern can express.

    A single wildcard root-child node matches exactly the document root
    entry, so the server ships one fragment — the whole tree — through
    the standard sealed path (integrity, freshness and leakage
    countermeasures all apply) and the client evaluates the original
    query over it.  It is also the §7.3 naive baseline's plan
    (``Client.naive_plan``).
    """
    root = PatternNode(test="*", axis="root-child")
    root.is_output = True
    return PatternTree(roots=[root], output=root, ship_nodes=[root])
