"""Stack-based binary structural joins (Al-Khalifa et al., ICDE 2002).

The paper's server "computes any of the standard structural join
algorithms" over DSI intervals (§6.2) and cites the Stack-Tree family [4]
as the primitive.  This module implements the classic merge:
given an ancestor candidate list and a descendant candidate list, both
sorted by interval start, :func:`stack_tree_desc` emits every
(ancestor, descendant) pair in one linear pass with an explicit stack —
O(|A| + |D| + |output|) instead of the nested-loop product.

The twig matcher in :mod:`repro.core.structural_join` normally uses the
precomputed parent pointers (possible because it owns the whole laminar
forest); this module is the drop-in the paper actually names, used by the
join ablation benchmark and available for callers that only hold the two
sorted lists.
"""

from __future__ import annotations

from typing import Optional

from repro.core.dsi import IndexEntry
from repro.xpath.axes import order_bounds, sibling_bounds


def stack_tree_desc(
    ancestors: list[IndexEntry],
    descendants: list[IndexEntry],
) -> list[tuple[IndexEntry, IndexEntry]]:
    """All (a, d) pairs with a's interval strictly containing d's.

    Both inputs must be sorted by ``interval.low`` (the DSI table's order).
    Output pairs are sorted by the descendant's position, matching the
    original algorithm's Stack-Tree-Desc variant.
    """
    pairs: list[tuple[IndexEntry, IndexEntry]] = []
    stack: list[IndexEntry] = []
    a_index = 0
    d_index = 0
    while d_index < len(descendants):
        descendant = descendants[d_index]
        # Push every ancestor that starts before this descendant.
        while (
            a_index < len(ancestors)
            and ancestors[a_index].interval.low < descendant.interval.low
        ):
            candidate = ancestors[a_index]
            # Pop ancestors that ended before this candidate starts.
            while stack and stack[-1].interval.high < candidate.interval.low:
                stack.pop()
            stack.append(candidate)
            a_index += 1
        # Pop ancestors that ended before the descendant starts.
        while stack and stack[-1].interval.high < descendant.interval.low:
            stack.pop()
        # Every ancestor still on the stack contains the descendant
        # (the stack is a containment chain).
        for ancestor in stack:
            if ancestor.interval.contains(descendant.interval):
                pairs.append((ancestor, descendant))
        d_index += 1
    return pairs


def join_descendants(
    ancestors: list[IndexEntry],
    descendants: list[IndexEntry],
) -> tuple[list[IndexEntry], list[IndexEntry]]:
    """Semi-join both sides: ancestors with ≥1 descendant and vice versa.

    This is the pruning the twig matcher needs per pattern edge ("prune
    index entries at query nodes", §6.2 step 1): each side keeps only the
    entries participating in at least one structural pair.
    """
    pairs = stack_tree_desc(ancestors, descendants)
    kept_ancestors: dict[int, IndexEntry] = {}
    kept_descendants: dict[int, IndexEntry] = {}
    for ancestor, descendant in pairs:
        kept_ancestors.setdefault(id(ancestor), ancestor)
        kept_descendants.setdefault(id(descendant), descendant)
    return (
        sorted(kept_ancestors.values(), key=lambda e: e.interval.low),
        sorted(kept_descendants.values(), key=lambda e: e.interval.low),
    )


def entry_order_bounds(
    entries: list[IndexEntry],
) -> Optional[tuple[float, float]]:
    """``(min low, max high)`` of an anchor set, for order-axis joins.

    The axis engine's *following*/*preceding* semi-joins reduce to two
    scalar thresholds over the anchor side (see the interval-algebra
    table in :mod:`repro.xpath.axes`): an entry can follow some anchor
    iff its high bound exceeds the anchors' minimum low, and can precede
    some anchor iff its low bound undercuts the anchors' maximum high.
    """
    return order_bounds(
        (entry.interval.low, entry.interval.high) for entry in entries
    )


def entry_sibling_bounds(
    entries: list[IndexEntry],
) -> dict[object, tuple[float, float]]:
    """Per-parent ``(min low, max high)`` of an anchor set.

    The sibling-axis semi-joins are the order-axis thresholds scoped to
    one parent; parents are keyed by object identity (the laminar forest
    owns one entry object per node), with ``None`` for forest roots.
    """
    return sibling_bounds(
        (
            id(entry.parent) if entry.parent is not None else None,
            entry.interval.low,
            entry.interval.high,
        )
        for entry in entries
    )


def join_children(
    parents: list[IndexEntry],
    children: list[IndexEntry],
) -> tuple[list[IndexEntry], list[IndexEntry]]:
    """Child-axis variant using the derived child relation (§5.1).

    Runs the descendant join, then filters pairs to immediate containment
    — the paper's ``child(x,y) ⇔ desc(x,y) ∧ ¬∃z`` definition, decided
    here with the precomputed parent pointer of the laminar forest.
    """
    pairs = stack_tree_desc(parents, children)
    kept_parents: dict[int, IndexEntry] = {}
    kept_children: dict[int, IndexEntry] = {}
    for parent, child in pairs:
        if child.parent is parent:
            kept_parents.setdefault(id(parent), parent)
            kept_children.setdefault(id(child), child)
    return (
        sorted(kept_parents.values(), key=lambda e: e.interval.low),
        sorted(kept_children.values(), key=lambda e: e.interval.low),
    )
