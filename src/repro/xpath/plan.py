"""Per-query plan selection: the axis lowering, or residual.

Every parseable query gets a server-side plan — the §7.3 naive
baseline is the residual pattern under another label, and only
``naive_query`` asks for it:

``axis``
    Anything a pattern can express: the paper's downward twigs, reverse
    axes, order axes, positional predicates, named descendant-or-self,
    relative-shaped predicate branches over those.  Uses
    :func:`repro.xpath.axes.compile_axis_pattern`, which also computes
    the ship set.

``residual``
    Degenerate shapes with no pattern anchor (relative paths, reverse
    axes from the document node, absolute predicate paths, positional
    predicates on escaping branches, the namespace axis).  The server
    ships the document root fragment through the sealed wire and the
    client evaluates the original query over it — typed and counted,
    never :class:`~repro.xpath.compiler.UnsupportedQuery`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.xpath import ast
from repro.xpath.axes import (
    ResidualRequired,
    compile_axis_pattern,
    residual_pattern,
)
from repro.xpath.compiler import PatternNode, PatternTree
from repro.xpath.parser import parse_xpath


@dataclass
class QueryPlan:
    """A chosen lowering for one query."""

    kind: str  # "axis" | "residual"
    pattern: PatternTree
    #: why no pattern anchors the query (None for axis plans)
    reason: Optional[str] = None


def plan_query(path: ast.LocationPath) -> QueryPlan:
    """The axis lowering, else the residual plan."""
    try:
        return QueryPlan(kind="axis", pattern=compile_axis_pattern(path))
    except ResidualRequired as reason:
        return QueryPlan(
            kind="residual", pattern=residual_pattern(), reason=str(reason)
        )


def plan_for(xpath: str) -> QueryPlan:
    """Parse-and-plan convenience used by the CLI and tests."""
    return plan_query(parse_xpath(xpath))


def explain_plan(xpath: str) -> str:
    """Human-readable plan rendering (no server round-trip).

    Reuses the pattern nodes' ``__str__`` and annotates ship-set and
    positional markers, e.g.::

        plan: axis
        root-descendant::b [ship]
          ancestor::x *OUT* [ship]
    """
    try:
        plan = plan_for(xpath)
    except ValueError as exc:  # syntax errors included
        return f"query: {xpath}\nplan: unplannable ({exc})"
    lines = [f"query: {xpath}", f"plan: {plan.kind}"]
    if plan.reason:
        lines[-1] += f" ({plan.reason})"
    ship_ids = {id(n) for n in plan.pattern.ship_nodes}
    for root in plan.pattern.roots:
        _render(root, 0, ship_ids, lines)
    return "\n".join(lines)


def _render(
    node: PatternNode,
    depth: int,
    ship_ids: set[int],
    lines: list[str],
) -> None:
    marks = ""
    if id(node) in ship_ids:
        marks += " [ship]"
    if node.position_sensitive:
        marks += " [positional]"
    lines.append(f"{'  ' * depth}{node}{marks}")
    for child in node.children:
        _render(child, depth + 1, ship_ids, lines)
