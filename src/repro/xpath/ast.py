"""Abstract syntax tree for the XPath fragment.

The AST mirrors the XPath 1.0 data model restricted to what the paper uses:
a :class:`LocationPath` is a sequence of :class:`Step` objects, each with an
axis, a :class:`NodeTest` and optional :class:`Predicate` filters.  Predicates
contain either an existence test, a value comparison against a literal, or a
1-based position test.

All AST classes are immutable value objects with structural equality, which
lets tests compare parsed queries directly and lets the query translator
rebuild encrypted queries by reconstructing nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

# Axis names (a deliberate subset of XPath 1.0).
AXIS_CHILD = "child"
AXIS_DESCENDANT = "descendant"
AXIS_DESCENDANT_OR_SELF = "descendant-or-self"
AXIS_SELF = "self"
AXIS_PARENT = "parent"
AXIS_ANCESTOR = "ancestor"
AXIS_ANCESTOR_OR_SELF = "ancestor-or-self"
AXIS_ATTRIBUTE = "attribute"
AXIS_FOLLOWING_SIBLING = "following-sibling"
AXIS_PRECEDING_SIBLING = "preceding-sibling"
AXIS_FOLLOWING = "following"
AXIS_PRECEDING = "preceding"
AXIS_NAMESPACE = "namespace"

ALL_AXES = frozenset(
    {
        AXIS_NAMESPACE,
        AXIS_CHILD,
        AXIS_DESCENDANT,
        AXIS_DESCENDANT_OR_SELF,
        AXIS_SELF,
        AXIS_PARENT,
        AXIS_ANCESTOR,
        AXIS_ANCESTOR_OR_SELF,
        AXIS_ATTRIBUTE,
        AXIS_FOLLOWING_SIBLING,
        AXIS_PRECEDING_SIBLING,
        AXIS_FOLLOWING,
        AXIS_PRECEDING,
    }
)

#: Comparison operators supported in value predicates.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class NodeTest:
    """Matches a node by name: a specific name or the ``*`` wildcard."""

    name: str  # "*" means any

    @property
    def is_wildcard(self) -> bool:
        return self.name == "*"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Exists:
    """Existence predicate ``[path]``."""

    path: "LocationPath"

    def __str__(self) -> str:
        return str(self.path)


@dataclass(frozen=True)
class Comparison:
    """Value predicate ``[path op literal]``.

    ``literal`` keeps the source text; :attr:`numeric` is the parsed number
    when the literal is numeric, which determines comparison semantics
    (numeric when both sides parse as numbers, string otherwise).
    """

    path: "LocationPath"
    op: str
    literal: str

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    @property
    def numeric(self) -> Optional[float]:
        try:
            return float(self.literal)
        except ValueError:
            return None

    def __str__(self) -> str:
        literal = self.literal
        if self.numeric is None:
            literal = f"'{literal}'"
        return f"{self.path}{self.op}{literal}"


#: Sentinel index for ``[last()]`` — resolved against the live candidate
#: list at evaluation time, like Python's ``seq[-1]``.
LAST = -1


@dataclass(frozen=True)
class Position:
    """Positional predicate ``[n]`` (1-based, per XPath).

    ``[position()=n]`` normalizes to the same node, and ``[last()]`` is
    carried as the :data:`LAST` sentinel so every layer downstream of the
    parser sees a single positional shape.
    """

    index: int

    @property
    def is_last(self) -> bool:
        return self.index == LAST

    def __str__(self) -> str:
        if self.is_last:
            return "last()"
        return str(self.index)


PredicateExpr = Union[Exists, Comparison, Position]


@dataclass(frozen=True)
class Predicate:
    """A single ``[...]`` filter attached to a step."""

    expr: PredicateExpr

    def __str__(self) -> str:
        return f"[{self.expr}]"


@dataclass(frozen=True)
class Step:
    """One location step: ``axis::nodetest[pred]*``."""

    axis: str
    test: NodeTest
    predicates: tuple[Predicate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.axis not in ALL_AXES:
            raise ValueError(f"unsupported axis {self.axis!r}")

    def with_predicates(self, predicates: tuple[Predicate, ...]) -> "Step":
        return Step(self.axis, self.test, predicates)

    def __str__(self) -> str:
        preds = "".join(str(p) for p in self.predicates)
        if self.axis == AXIS_CHILD:
            return f"{self.test}{preds}"
        if self.axis == AXIS_ATTRIBUTE:
            return f"@{self.test}{preds}"
        if self.axis == AXIS_SELF and self.test.is_wildcard and not preds:
            return "."
        if self.axis == AXIS_PARENT and self.test.is_wildcard and not preds:
            return ".."
        return f"{self.axis}::{self.test}{preds}"


@dataclass(frozen=True)
class LocationPath:
    """A parsed location path.

    ``absolute`` distinguishes ``/a/b`` (and ``//a``) from relative paths;
    a leading ``//`` is represented as an absolute path whose first step uses
    the descendant-or-self axis, matching XPath's desugaring.
    """

    absolute: bool
    steps: tuple[Step, ...]

    @property
    def is_self(self) -> bool:
        """Whether this is ``.``: the context node itself.  The lowering
        and the evaluator both read a comparison on it as a test of the
        node's own value."""
        return (
            not self.absolute
            and len(self.steps) == 1
            and self.steps[0].axis == AXIS_SELF
            and self.steps[0].test.is_wildcard
            and not self.steps[0].predicates
        )

    def __str__(self) -> str:
        text = ""
        separator = "/" if self.absolute else ""
        for step in self.steps:
            is_abbreviated_slashes = (
                step.axis == AXIS_DESCENDANT_OR_SELF
                and step.test.is_wildcard
                and not step.predicates
            )
            if is_abbreviated_slashes:
                # A bare descendant-or-self::* step renders as the '//'
                # separator of the following step.
                separator = "//"
                continue
            text += separator + str(step)
            separator = "/"
        if not text:
            return "/" if self.absolute else "."
        return text
