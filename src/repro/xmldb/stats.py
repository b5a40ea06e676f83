"""Document statistics: the attacker's background knowledge.

The paper's attack model (§3.3) grants the adversary *exact* knowledge of the
domain values and their occurrence frequencies for every attribute/leaf-
element, but no knowledge of the tag distribution or value correlations.
This module computes exactly those histograms, for use both by the attack
simulators in :mod:`repro.security` and by OPESS, which needs the plaintext
frequency profile to plan its splitting.
"""

from __future__ import annotations

from collections import Counter

from repro.xmldb.node import Attribute, Document, Element, Node


def leaf_field_name(node: Node) -> str:
    """Canonical field name of a value-bearing leaf.

    Leaf elements are identified by their tag; attributes by ``@name``.  The
    paper treats "each attribute" (i.e. each leaf field) as an independently
    known distribution, so this name is the histogram key.
    """
    if isinstance(node, Attribute):
        return f"@{node.name}"
    if isinstance(node, Element):
        return node.tag
    raise TypeError(f"not a value-bearing leaf: {node!r}")


def value_frequencies(document: Document) -> dict[str, Counter]:
    """Per-field value histograms: ``{field: {value: count}}``.

    This is the adversary's frequency-attack knowledge base
    (§3.3 "Frequency-based Attack").
    """
    histograms: dict[str, Counter] = {}
    for leaf in document.leaves():
        value = leaf.text_value()
        if value is None:
            continue
        field = leaf_field_name(leaf)
        histograms.setdefault(field, Counter())[value] += 1
    return histograms


def field_frequency(document: Document, field: str) -> Counter:
    """Histogram of a single field (leaf tag or ``@attribute``)."""
    return value_frequencies(document).get(field, Counter())


def tag_histogram(document: Document) -> Counter:
    """Occurrences of each element tag (not part of attacker knowledge)."""
    histogram: Counter = Counter()
    for element in document.elements():
        histogram[element.tag] += 1
    return histogram


def depth(document: Document) -> int:
    """Height of the document tree (root at depth 0)."""
    best = 0
    for node in document.root.iter():
        best = max(best, node.depth)
    return best


def same_distribution(left: Counter, right: Counter) -> bool:
    """True if two histograms have the same multiset of frequencies.

    Used by the indistinguishability checker (Definition 3.1 condition (2)):
    two databases are frequency-indistinguishable on a field when each domain
    value occurs equally often — after encryption the attacker only sees the
    multiset of ciphertext frequencies, so we compare those multisets.
    """
    return sorted(left.values()) == sorted(right.values())
