"""Security constraints (§3.2).

A security constraint (SC) is the data owner's declaration of what must be
hidden from the untrusted server.  Two forms exist:

* a **node-type** constraint ``p`` — every element that the XPath expression
  ``p`` binds to is classified in its entirety (tag, structure and values);
* an **association** constraint ``p : (q1, q2)`` — for every binding ``x``
  of ``p``, the association between the values reached by ``q1`` and ``q2``
  in the context of ``x`` is classified, even though each value on its own
  may be public.

Each SC *captures* a set of queries (Example 3.1): a node-type SC captures
every query rooted in ``p``; an association SC captures the queries
``p[q1 = v1][q2 = v2]`` for every value pair that actually co-occurs.  The
enforcement obligation is that the server must not learn whether any
captured query has a non-empty answer (``D ⊨ A``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.xmldb.node import Document, Element, Node
from repro.xpath import ast
from repro.xpath.evaluator import evaluate, evaluate_on_element
from repro.xpath.lexer import COLON, COMMA, END, LPAREN, RPAREN, tokenize
from repro.xpath.parser import _Parser


@dataclass(frozen=True)
class SecurityConstraint:
    """One parsed security constraint.

    ``context_path`` is ``p``.  For association constraints ``q1``/``q2``
    hold the two endpoint paths (already normalized to relative paths, as
    the paper's ``/pname`` notation means "child of the context node");
    for node-type constraints they are ``None``.
    """

    context_path: ast.LocationPath
    q1: Optional[ast.LocationPath] = None
    q2: Optional[ast.LocationPath] = None
    source: str = ""

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "SecurityConstraint":
        """Parse ``"//insurance"`` or ``"//patient:(/pname, /SSN)"``."""
        parser = _Parser(tokenize(text))
        context = parser.parse_path()
        if parser.current.kind == END:
            return cls(context_path=context, source=text.strip())
        parser.expect(COLON)
        parser.expect(LPAREN)
        q1 = _normalize_relative(parser.parse_path())
        parser.expect(COMMA)
        q2 = _normalize_relative(parser.parse_path())
        parser.expect(RPAREN)
        parser.expect(END)
        return cls(context_path=context, q1=q1, q2=q2, source=text.strip())

    @property
    def is_association(self) -> bool:
        return self.q1 is not None

    def __str__(self) -> str:
        if self.is_association:
            return f"{self.context_path}:({self.q1}, {self.q2})"
        return str(self.context_path)

    # ------------------------------------------------------------------
    # Bindings
    # ------------------------------------------------------------------
    def context_nodes(self, document: Document) -> list[Element]:
        """Elements that ``p`` binds to."""
        return [
            node
            for node in evaluate(document, self.context_path)
            if isinstance(node, Element)
        ]

    def endpoint_nodes(
        self, document: Document, which: int
    ) -> list[Node]:
        """All nodes bound by ``q1`` (which=1) or ``q2`` (which=2).

        Only meaningful for association constraints; the result is the
        union over all context bindings.
        """
        return nodes_under(
            self.context_nodes(document), self.endpoint_path(which)
        )

    def association_pairs(
        self, document: Document
    ) -> Iterator[tuple[str, str]]:
        """Co-occurring (v1, v2) value pairs, one per context binding pair."""
        if not self.is_association:
            return
        for context in self.context_nodes(document):
            left_values = _leaf_values(
                evaluate_on_element(context, self.endpoint_path(1))
            )
            right_values = _leaf_values(
                evaluate_on_element(context, self.endpoint_path(2))
            )
            for v1 in left_values:
                for v2 in right_values:
                    yield (v1, v2)

    def endpoint_path(self, which: int) -> ast.LocationPath:
        """``q1`` (which=1) or ``q2`` (which=2)."""
        if not self.is_association:
            raise ValueError("node-type constraints have no endpoints")
        if which == 1:
            assert self.q1 is not None
            return self.q1
        if which == 2:
            assert self.q2 is not None
            return self.q2
        raise ValueError("endpoint selector must be 1 or 2")

    def endpoint_field(self, which: int) -> str:
        """Canonical field name of an endpoint (last step's tag or @attr).

        This is the vertex label in the constraint graph (§4.2, Fig. 8):
        the paper's graph "has a node for every tag appearing in the SCs".
        """
        path = self.endpoint_path(which)
        last = path.steps[-1]
        if last.axis == ast.AXIS_ATTRIBUTE:
            return f"@{last.test.name}"
        return last.test.name

    # ------------------------------------------------------------------
    # Captured queries and enforcement checking
    # ------------------------------------------------------------------
    def captured_queries(self, document: Document) -> list[str]:
        """Materialize the captured-query set for this SC on a database.

        Node-type SCs capture the context query itself (the representative
        of the family ``p``, ``p/a``, ``p//a``, ...); association SCs
        capture ``p[q1 = v1][q2 = v2]`` for every co-occurring pair.
        """
        if not self.is_association:
            return [str(self.context_path)]
        queries = []
        for v1, v2 in sorted(set(self.association_pairs(document))):
            queries.append(
                f"{self.context_path}[{self.q1}='{v1}'][{self.q2}='{v2}']"
            )
        return queries

    def holds(self, document: Document, captured_query: str) -> bool:
        """``D ⊨ A``: the captured query has a non-empty answer on D."""
        return bool(evaluate(document, captured_query))


def nodes_under(contexts: list[Element], path: ast.LocationPath) -> list[Node]:
    """Union of ``path``'s answers over ``contexts``, first-seen order."""
    nodes: list[Node] = []
    seen: set[int] = set()
    for context in contexts:
        for node in evaluate_on_element(context, path):
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
    return nodes


def _normalize_relative(path: ast.LocationPath) -> ast.LocationPath:
    """Interpret SC endpoint paths relative to the context node.

    The paper writes ``/pname`` for "child pname of the context" and
    ``//disease`` for "descendant disease"; our XPath parser marks both
    absolute, so the SC parser strips the absoluteness.
    """
    return ast.LocationPath(False, path.steps)


def _leaf_values(nodes: list[Node]) -> list[str]:
    values = []
    for node in nodes:
        value = node.text_value()
        if value is not None:
            values.append(value)
    return values


def parse_constraints(lines: list[str]) -> list[SecurityConstraint]:
    """Parse a list of SC strings, skipping blanks and ``#`` comments."""
    constraints = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        constraints.append(SecurityConstraint.parse(stripped))
    return constraints
