"""Encryption schemes (§3.1, §4) and the four granularities of §7.1.

An encryption scheme is "an identification of those elements that are to be
encrypted": here, the set of block-root elements, each of which becomes one
encryption block.  The module provides the secure-scheme construction of
Theorem 4.1 plus the four scheme families the experiments compare:

* ``opt``  — block per covered node, cover chosen by the exact solver;
* ``app``  — same, cover chosen by Clarkson's greedy 2-approximation;
* ``sub``  — blocks rooted at the *parents* of the ``opt`` blocks;
* ``top``  — the whole document as a single block.

All four enforce the SCs (they encrypt at least the covered nodes, with
decoys); they differ in granularity, which is exactly the efficiency axis
the evaluation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.xmldb.node import Document, Element
from repro.core.constraint_graph import (
    ConstraintBindings,
    _encryptable,
    build_constraint_graph,
)
from repro.core.constraints import SecurityConstraint
from repro.core.optimal import clarkson_greedy_cover, exact_min_cover

SCHEME_KINDS = ("opt", "app", "sub", "top", "leaf")


@dataclass(frozen=True)
class EncryptionScheme:
    """A set of encryption-block roots over a specific document.

    ``block_root_ids`` are document-order node ids, valid for the document
    the scheme was built from.  The set is normalized: no root is a
    descendant of another (nested choices merge into the outermost root).
    """

    kind: str
    block_root_ids: frozenset[int]
    covered_fields: frozenset[str] = field(default_factory=frozenset)

    def block_roots(self, document: Document) -> list[Element]:
        """Resolve ids to elements, in document order."""
        roots = []
        for node_id in sorted(self.block_root_ids):
            node = document.node_by_id(node_id)
            assert isinstance(node, Element)
            roots.append(node)
        return roots

    def size(self, document: Document) -> int:
        """Scheme size |S| per Definition 4.1: Σ block sizes incl. decoys."""
        total = 0
        for root in self.block_roots(document):
            leaf_count = sum(
                1
                for node in root.iter()
                if isinstance(node, Element) and node.is_leaf_element
            )
            total += root.subtree_size() + max(leaf_count, 1)
        return total


def _normalize_roots(document: Document, roots: list[Element]) -> frozenset[int]:
    """Drop roots nested inside other roots; return id set."""
    ids = {root.node_id for root in roots}
    keep: set[int] = set()
    for root in roots:
        if any(
            ancestor.node_id in ids for ancestor in root.ancestors()
        ):
            continue
        keep.add(root.node_id)
    return frozenset(keep)


def _covered_elements(
    document: Document,
    constraints: list[SecurityConstraint],
    cover_algorithm: Callable,
) -> tuple[list[Element], set[str]]:
    """Elements to encrypt: node-type targets + association cover bindings.

    One :class:`ConstraintBindings` serves both halves, so a context path
    that several SCs share is evaluated once per scheme build.
    """
    bindings = ConstraintBindings(document)
    elements: list[Element] = []
    seen: set[int] = set()

    def add(element: Element) -> None:
        if id(element) not in seen:
            seen.add(id(element))
            elements.append(element)

    for constraint in constraints:
        if not constraint.is_association:
            for node in bindings.context_nodes(constraint):
                add(node)

    graph = build_constraint_graph(document, constraints, bindings)
    cover = cover_algorithm(graph) if graph.edges else set()
    for field_name in sorted(cover):
        for element in graph.bindings[field_name]:
            add(element)
    return elements, set(cover)


def opt_scheme(
    document: Document, constraints: list[SecurityConstraint]
) -> EncryptionScheme:
    """The optimal secure scheme: exact minimum-weight cover (§4.2)."""
    elements, cover = _covered_elements(document, constraints, exact_min_cover)
    return EncryptionScheme(
        "opt", _normalize_roots(document, elements), frozenset(cover)
    )


def app_scheme(
    document: Document, constraints: list[SecurityConstraint]
) -> EncryptionScheme:
    """The approximate scheme: Clarkson's greedy cover (§4.2, §7.1)."""
    elements, cover = _covered_elements(
        document, constraints, clarkson_greedy_cover
    )
    return EncryptionScheme(
        "app", _normalize_roots(document, elements), frozenset(cover)
    )


def sub_scheme(
    document: Document, constraints: list[SecurityConstraint]
) -> EncryptionScheme:
    """Blocks at the parents of the ``opt`` blocks (§7.1's "sub" scheme)."""
    base = opt_scheme(document, constraints)
    parents: list[Element] = []
    seen: set[int] = set()
    for root in base.block_roots(document):
        parent = root.parent if root.parent is not None else root
        assert isinstance(parent, Element)
        if id(parent) not in seen:
            seen.add(id(parent))
            parents.append(parent)
    return EncryptionScheme(
        "sub", _normalize_roots(document, parents), base.covered_fields
    )


def top_scheme(
    document: Document, constraints: list[SecurityConstraint] | None = None
) -> EncryptionScheme:
    """The whole document as one encryption block (§7.1's "top" scheme)."""
    fields: frozenset[str] = frozenset()
    if constraints:
        graph = build_constraint_graph(document, constraints)
        fields = frozenset(graph.weights)
    return EncryptionScheme(
        "top", frozenset({document.root.node_id}), fields
    )


def naive_leaf_scheme(
    document: Document, constraints: list[SecurityConstraint]
) -> EncryptionScheme:
    """The §4.1 strawman: encrypt every sensitive leaf individually.

    "If the client plainly encrypts each disease and age element
    individually, the encrypted value of leukemia will have the same
    number of occurrence as before encryption ... the attacker can easily
    identify the plaintext values and infer the classified association."

    This scheme encrypts *both* endpoints of every association SC (and all
    node-SC targets) as per-leaf blocks.  It only yields the insecure
    behaviour when hosted with ``secure=False`` (no decoys, deterministic
    block encryption); it exists so the attack experiments can run against
    real ciphertext rather than a simulated histogram.
    """
    bindings = ConstraintBindings(document)
    elements: list[Element] = []
    seen: set[int] = set()
    for constraint in constraints:
        if constraint.is_association:
            bound = []
            for which in (1, 2):
                bound.extend(bindings.endpoint_nodes(constraint, which))
        else:
            bound = bindings.context_nodes(constraint)
        for node in bound:
            element = _encryptable(node)
            if id(element) not in seen:
                seen.add(id(element))
                elements.append(element)
    fields = frozenset(
        constraint.endpoint_field(which)
        for constraint in constraints
        if constraint.is_association
        for which in (1, 2)
    )
    return EncryptionScheme(
        "leaf", _normalize_roots(document, elements), fields
    )


def build_scheme(
    document: Document,
    constraints: list[SecurityConstraint],
    kind: str,
) -> EncryptionScheme:
    """Factory dispatching on the §7.1 scheme names (plus "leaf", §4.1)."""
    if kind == "opt":
        return opt_scheme(document, constraints)
    if kind == "app":
        return app_scheme(document, constraints)
    if kind == "sub":
        return sub_scheme(document, constraints)
    if kind == "top":
        return top_scheme(document, constraints)
    if kind == "leaf":
        return naive_leaf_scheme(document, constraints)
    raise ValueError(f"unknown scheme kind {kind!r}; expected one of {SCHEME_KINDS}")
