"""Pattern trees: what an XPath query lowers to for server evaluation.

The server evaluates queries structurally, over DSI intervals, by twig
pattern matching (§6.2 steps 1–3).  A query lowers to a
:class:`PatternTree`: a tree of :class:`PatternNode` objects connected by
axis edges, with at most one value constraint per node and a single
distinguished *output* node (the query answer node).  The one lowering is
:func:`repro.xpath.axes.compile_axis_pattern`; :mod:`repro.xpath.plan`
picks it or the residual plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class UnsupportedQuery(ValueError):
    """Raised when a query cannot be evaluated as a server-side pattern."""


@dataclass
class PatternNode:
    """One node of the twig pattern."""

    #: element tag, ``@name`` for attributes, or ``*``
    test: str
    #: axis connecting this node to its pattern parent ("child",
    #: "descendant", "attribute", an upward or order axis, …;
    #: "root-child"/"root-descendant" for the edge from the virtual
    #: document node).
    axis: str
    children: list["PatternNode"] = field(default_factory=list)
    #: (op, literal) when a comparison predicate constrains this node
    value_constraint: Optional[tuple[str, str]] = None
    is_output: bool = False
    #: the original step carries a positional predicate ([n] / last()),
    #: so the server must keep this node's candidate list complete: no
    #: bottom-up pruning of the node's own matches (top-down pruning from
    #: the parent remains sound) and the full surviving set ships.
    position_sensitive: bool = False

    @property
    def is_attribute(self) -> bool:
        return self.test.startswith("@")

    @property
    def is_wildcard(self) -> bool:
        return self.test in ("*", "@*")

    def walk(self):
        """Yield this node and all pattern descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __str__(self) -> str:
        constraint = ""
        if self.value_constraint:
            op, literal = self.value_constraint
            constraint = f"{op}{literal}"
        marker = "*OUT*" if self.is_output else ""
        return f"{self.axis}::{self.test}{constraint}{marker}"


@dataclass
class PatternTree:
    """A compiled query: pattern roots, the output node and the ship set."""

    roots: list[PatternNode]
    output: PatternNode
    #: every node whose full surviving match set the server ships
    ship_nodes: list[PatternNode]

    def nodes(self) -> list[PatternNode]:
        out: list[PatternNode] = []
        for root in self.roots:
            out.extend(root.walk())
        return out
