"""Independent enforcement checking for encryption schemes (Theorem 4.1).

The scheme constructors in :mod:`repro.core.scheme` enforce the security
constraints *by construction*; this module checks enforcement for an
**arbitrary** scheme — including hand-built ones — against the Theorem 4.1
conditions:

(i)   every node bound by a node-type SC lies in an encryption block;
(ii)  for every association SC, in the context of each binding, at least
      one endpoint side's nodes all lie in encryption blocks;
(iii) (checked at hosting time, reported here structurally) encrypted
      leaves receive decoys — guaranteed by the encryptor whenever
      ``secure=True``, and flagged as a violation for strawman hostings.

Owners can run :func:`check_enforcement` before shipping a hosting built
with a custom scheme, and the property-based test suite uses it as the
oracle that the built-in constructors never under-encrypt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constraints import SecurityConstraint
from repro.core.scheme import EncryptionScheme
from repro.xmldb.node import Document, Element


@dataclass(frozen=True)
class Violation:
    """One enforcement failure."""

    constraint: str
    reason: str

    def __str__(self) -> str:
        return f"{self.constraint}: {self.reason}"


def _covered_ids(document: Document, scheme: EncryptionScheme) -> set[int]:
    """Node ids (elements + attributes) inside some encryption block."""
    covered: set[int] = set()
    for root in scheme.block_roots(document):
        for node in root.iter():
            covered.add(node.node_id)
            if isinstance(node, Element):
                for attribute in node.attributes:
                    covered.add(attribute.node_id)
    return covered


def check_enforcement(
    document: Document,
    constraints: list[SecurityConstraint],
    scheme: EncryptionScheme,
    secure_hosting: bool = True,
) -> list[Violation]:
    """Return every Theorem 4.1 violation (empty list = scheme enforces)."""
    violations: list[Violation] = []
    covered = _covered_ids(document, scheme)

    for constraint in constraints:
        if not constraint.is_association:
            for node in constraint.context_nodes(document):
                if node.node_id not in covered:
                    violations.append(
                        Violation(
                            str(constraint),
                            f"node-type target <{node.tag}> "
                            f"(id {node.node_id}) is not encrypted",
                        )
                    )
            continue

        for context in constraint.context_nodes(document):
            left = _binding_ids(context, constraint, 1)
            right = _binding_ids(context, constraint, 2)
            if not left or not right:
                continue  # no association materializes in this context
            left_hidden = left <= covered
            right_hidden = right <= covered
            if not (left_hidden or right_hidden):
                violations.append(
                    Violation(
                        str(constraint),
                        "association exposed in context "
                        f"<{context.tag}> (id {context.node_id}): "
                        "neither endpoint side is fully encrypted",
                    )
                )

    if not secure_hosting and scheme.block_root_ids:
        violations.append(
            Violation(
                "(hosting mode)",
                "secure=False hosting omits decoys: Theorem 4.1 "
                "condition (iii) is violated",
            )
        )
    return violations


def _binding_ids(
    context: Element, constraint: SecurityConstraint, which: int
) -> set[int]:
    from repro.xpath.evaluator import evaluate_on_element

    path = constraint.q1 if which == 1 else constraint.q2
    assert path is not None
    ids: set[int] = set()
    for node in evaluate_on_element(context, path):
        ids.add(node.node_id)
    return ids


def assert_enforced(
    document: Document,
    constraints: list[SecurityConstraint],
    scheme: EncryptionScheme,
) -> None:
    """Raise ValueError with a readable report if enforcement fails."""
    violations = check_enforcement(document, constraints, scheme)
    if violations:
        details = "\n  ".join(str(violation) for violation in violations)
        raise ValueError(
            f"scheme does not enforce the security constraints:\n  {details}"
        )
