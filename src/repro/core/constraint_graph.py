"""The constraint graph (§4.2, Figure 8).

The graph "has a node for every tag appearing in the SCs and an edge
representing every association type SC".  Finding the cheapest set of fields
to encrypt such that every association SC has at least one encrypted
endpoint is exactly weighted VERTEX COVER on this graph — the reduction
behind Theorem 4.2's NP-hardness result.

Vertex weights model the encryption cost the paper minimizes: the total
number of nodes that encrypting a field adds to the scheme, including the
decoy each encrypted leaf receives (the scheme-size measure of
Definition 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xmldb.node import Attribute, Document, Element, Node
from repro.xpath.ast import LocationPath
from repro.core.constraints import SecurityConstraint, nodes_under


@dataclass
class ConstraintGraph:
    """Weighted undirected graph over SC endpoint fields."""

    #: field name -> encryption cost (nodes + decoys)
    weights: dict[str, int] = field(default_factory=dict)
    #: undirected edges, one per association SC (parallel edges collapse)
    edges: set[frozenset[str]] = field(default_factory=set)
    #: field name -> concrete nodes that encrypting the field covers
    bindings: dict[str, list[Node]] = field(default_factory=dict)

    @property
    def vertices(self) -> list[str]:
        return sorted(self.weights)

    def degree(self, vertex: str) -> int:
        return sum(1 for edge in self.edges if vertex in edge)

    def is_vertex_cover(self, cover: set[str]) -> bool:
        """True if every edge has at least one endpoint in ``cover``."""
        return all(edge & cover for edge in self.edges)


class ConstraintBindings:
    """What a set of SCs binds on one document, each path evaluated once.

    One scheme build asks for the same bindings over and over: every
    association SC of XMark and NASA shares its context path
    (``//person``, ``//dataset``), and endpoint paths recur across SCs.
    This memo evaluates each distinct context path once and each distinct
    (context, endpoint) pair once, with the same evaluator
    :meth:`SecurityConstraint.context_nodes` / ``endpoint_nodes`` use.  It
    lives for one build and holds the document as it was then: checking
    constraints against a document that writes have changed
    (:mod:`repro.core.enforcement`) evaluates afresh.
    """

    def __init__(self, document: Document) -> None:
        self.document = document
        self._contexts: dict[LocationPath, list[Element]] = {}
        self._endpoints: dict[tuple[LocationPath, LocationPath], list[Node]] = {}

    def context_nodes(self, constraint: SecurityConstraint) -> list[Element]:
        """Elements the SC's context path ``p`` binds to."""
        path = constraint.context_path
        nodes = self._contexts.get(path)
        if nodes is None:
            nodes = self._contexts[path] = constraint.context_nodes(
                self.document
            )
        return nodes

    def endpoint_nodes(
        self, constraint: SecurityConstraint, which: int
    ) -> list[Node]:
        """Nodes endpoint ``which`` binds, over every context binding."""
        key = (constraint.context_path, constraint.endpoint_path(which))
        nodes = self._endpoints.get(key)
        if nodes is None:
            nodes = self._endpoints[key] = nodes_under(
                self.context_nodes(constraint), key[1]
            )
        return nodes


def build_constraint_graph(
    document: Document,
    constraints: list[SecurityConstraint],
    bindings: ConstraintBindings | None = None,
) -> ConstraintGraph:
    """Construct the weighted constraint graph of the association SCs.

    Node-type SCs do not appear in the graph — their targets are encrypted
    unconditionally (there is no covering choice to make); see
    :func:`repro.core.scheme.secure_scheme`.  ``bindings`` shares one
    scheme build's evaluations; without it the graph makes its own.
    """
    if bindings is None:
        bindings = ConstraintBindings(document)
    graph = ConstraintGraph()
    for constraint in constraints:
        if not constraint.is_association:
            continue
        fields = (constraint.endpoint_field(1), constraint.endpoint_field(2))
        for which, field_name in enumerate(fields, start=1):
            bound = [
                _encryptable(node)
                for node in bindings.endpoint_nodes(constraint, which)
            ]
            if field_name not in graph.weights:
                graph.bindings[field_name] = []
                graph.weights[field_name] = 0
            # The same field can be an endpoint of several SCs with
            # different context paths; widen its binding set.
            known = {id(n) for n in graph.bindings[field_name]}
            for node in bound:
                if id(node) not in known:
                    known.add(id(node))
                    graph.bindings[field_name].append(node)
                    graph.weights[field_name] += _encryption_cost(node)
        if fields[0] == fields[1]:
            # A degenerate self-association (q1 and q2 name the same field)
            # forces that field into every cover; model it as a self-loop
            # handled by the solvers.
            graph.edges.add(frozenset({fields[0]}))
        else:
            graph.edges.add(frozenset(fields))
    return graph


def _encryptable(node: Node) -> Element:
    """The element actually encrypted for a bound endpoint node.

    Elements encrypt as their own block.  Attributes cannot stand alone in
    an XML serialization, so an attribute endpoint encrypts its owning
    element (which carries the attribute into the ciphertext) — the same
    effect the paper achieves in Figure 2, where ``@coverage`` is hidden by
    encrypting the enclosing ``insurance`` subtree.
    """
    if isinstance(node, Attribute):
        owner = node.parent
        assert isinstance(owner, Element)
        return owner
    if isinstance(node, Element):
        return node
    raise TypeError(f"cannot encrypt node kind {type(node).__name__}")


def _encryption_cost(node: Element) -> int:
    """Scheme-size contribution of encrypting this element as one block.

    The block contains the element's subtree plus one decoy per encrypted
    leaf element (Theorem 4.1 condition (iii)); an element with no value
    leaves still gets one decoy so its ciphertext is randomized.
    """
    leaf_count = sum(
        1
        for descendant in node.iter()
        if isinstance(descendant, Element) and descendant.is_leaf_element
    )
    return node.subtree_size() + max(leaf_count, 1)
