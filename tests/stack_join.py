"""Stack-based binary structural joins (Al-Khalifa et al., ICDE 2002).

The paper's server "computes any of the standard structural join
algorithms" over DSI intervals (§6.2) and cites the Stack-Tree family [4]
as the primitive.  This module implements the classic merge:
given an ancestor candidate list and a descendant candidate list, both
sorted by interval start, :func:`stack_tree_desc` emits every
(ancestor, descendant) pair in one linear pass with an explicit stack —
O(|A| + |D| + |output|) instead of the nested-loop product.

The server's join in :mod:`repro.core.structural_join` reads the
precomputed parent pointers instead (possible because it owns the whole
laminar forest), so nothing in ``src/`` runs this one.  It is the
primitive the paper names, kept beside its tests: ``test_core_stack_join``
cross-checks it and the join ablation benchmark
(``benchmarks/test_ablation_design_choices.py``, which reaches ``tests/``
through ``benchmarks/conftest.py``) prices it against the nested loop.
"""

from __future__ import annotations

from repro.core.dsi import IndexEntry


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
