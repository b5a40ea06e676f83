"""Server-side twig pattern matching over DSI intervals (§6.2).

Implements the three server steps of the paper's query pipeline:

1. *Translation of query structure*: each pattern node's lookup keys pull
   interval entries from the DSI index table.
2. *Translation of value-based constraints*: each constrained node's key
   ranges are run against the value index, yielding the set of
   encryption blocks that contain a matching value; entries of plaintext
   nodes are checked against the clear predicate directly.
3. *Obtaining final results*: a bottom-up/top-down structural join over the
   interval forest prunes entries that do not satisfy the twig, exactly the
   "computes structural joins, which prune index entries at query nodes"
   step, and surfaces the surviving entries of the output and ship nodes.

Axis tests are pure interval geometry: *descendant* is strict containment
(checked against a sorted low-bound array with binary search), and *child*
uses the precomputed immediate-parent pointers — the paper's
``child(x,y) ⇔ desc(x,y) ∧ ¬∃z …`` definition materialized once per index.
The axis engine (:mod:`repro.xpath.axes`) extends the edge vocabulary:
upward edges run on the same parent pointers in the other direction, and
order/sibling edges run on threshold forms of the interval order
relations (see the table in that module), two scalars per edge or per
parent (:func:`_order_filter`).  The matching is
sound-as-superset: grouped intervals and relaxed order thresholds can
only widen match sets, never lose a real match, and the client restores
exactness in post-processing.  Nodes translated from positional steps
(``position_sensitive``) skip bottom-up pruning entirely so the client
receives the complete per-parent candidate list to index into.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import inf
from typing import Callable, Optional

from repro.core.dsi import IndexEntry, StructuralIndex
from repro.core.opess import ValueIndex
from repro.core.translate import TranslatedNode, TranslatedQuery
from repro.xpath.axes import ORDER_EDGES
from repro.xpath.evaluator import comparator


@dataclass
class MatchResult:
    """Surviving entries after the structural join."""

    output_entries: list[IndexEntry]
    ship_entries: list[IndexEntry]
    #: per-pattern-node candidate counts, for the trace/experiments
    candidate_counts: dict[str, int] = field(default_factory=dict)


def match_pattern(
    query: TranslatedQuery,
    structure: StructuralIndex,
    values: ValueIndex,
) -> MatchResult:
    """Run the full structural join for a translated query."""
    return _Matcher(structure, values).run(query)


def superset_reason(query: TranslatedQuery) -> Optional[str]:
    """Why the join's output entries may be more than the query selects.

    ``None`` when they are the answer's nodes, so a write or a server
    fold may act on them without the client's re-evaluation: never for
    a residual or naive plan (its output is the document root), one with
    a positional node (its candidates are not pruned) or one with an
    order edge (its thresholds are relaxed).
    """
    if query.plan_kind != "axis":
        return f"a {query.plan_kind} plan's output is the document root"
    for node in query.root.walk():
        if node.position_sensitive:
            return "a positional step's candidates are not pruned"
        if node.axis in ORDER_EDGES:
            return f"a {node.axis} step's thresholds are relaxed"
    return None


class _Matcher:
    def __init__(
        self, structure: StructuralIndex, values: ValueIndex
    ) -> None:
        self._structure = structure
        self._values = values
        self._match_sets: dict[int, list[IndexEntry]] = {}
        self._counts: dict[str, int] = {}

    @staticmethod
    def _filter(entries: list[IndexEntry], predicate) -> list[IndexEntry]:
        """Order-preserving filter step."""
        return [entry for entry in entries if predicate(entry)]

    # ------------------------------------------------------------------
    # Bottom-up phase: which entries satisfy the pattern subtree
    # ------------------------------------------------------------------
    def run(self, query: TranslatedQuery) -> MatchResult:
        root_matches = self._match_subtree(query.root)
        root_matches = [
            entry
            for entry in root_matches
            if self._root_axis_ok(query.root.axis, entry)
        ]

        survivors: dict[int, set[int]] = {id(query.root): _id_set(root_matches)}
        ordered_survivors: dict[int, list[IndexEntry]] = {
            id(query.root): root_matches
        }
        self._prune_down(query.root, root_matches, survivors, ordered_survivors)

        ship_entries: list[IndexEntry] = []
        shipped: set[int] = set()
        for ship_node in query.ship_nodes:
            for entry in ordered_survivors.get(id(ship_node), []):
                if id(entry) not in shipped:
                    shipped.add(id(entry))
                    ship_entries.append(entry)

        return MatchResult(
            output_entries=ordered_survivors.get(id(query.output), []),
            ship_entries=ship_entries,
            candidate_counts=dict(self._counts),
        )

    def _match_subtree(self, node: TranslatedNode) -> list[IndexEntry]:
        cached = self._match_sets.get(id(node))
        if cached is not None:
            return cached

        candidates = self._candidates(node)
        self._counts[_label(node)] = len(candidates)

        for child in node.children:
            child_matches = self._match_subtree(child)
            if node.position_sensitive:
                # The client indexes [n]/last() into this node's
                # candidate list: it must stay complete per parent, so
                # no bottom-up narrowing (children still match above
                # for their own top-down phase).
                continue
            if not child_matches:
                candidates = []
                break
            candidates = self._filter_by_child(candidates, child, child_matches)
            if not candidates:
                break

        self._match_sets[id(node)] = candidates
        return candidates

    def _candidates(self, node: TranslatedNode) -> list[IndexEntry]:
        if node.is_wildcard:
            entries = list(self._structure.all_entries())
        else:
            entries = []
            for key in node.keys:
                entries.extend(self._structure.lookup(key))
        if not node.has_value_constraint:
            return entries
        # The value-index range probe and the literal's classification depend
        # only on the node, not the entry: do each once here instead of
        # once per candidate.
        blocks: "set[int] | None" = None
        if node.value_ranges is not None and node.value_field_token is not None:
            blocks = self._values.lookup_blocks(
                node.value_field_token, node.value_ranges
            )
        holds = None
        if node.plaintext_predicate is not None:
            holds = comparator(*node.plaintext_predicate)
        return self._filter(
            entries, lambda entry: _value_ok(node, entry, blocks, holds)
        )

    def _filter_by_child(
        self,
        candidates: list[IndexEntry],
        child: TranslatedNode,
        child_matches: list[IndexEntry],
    ) -> list[IndexEntry]:
        axis = child.axis
        if axis in ("child", "attribute"):
            # the parent-pointer relation read upward: one set of parent
            # ids per edge (a root match's parent, None, names no entry)
            parent_ids = {id(match.parent) for match in child_matches}
            return self._filter(
                candidates, lambda entry: id(entry) in parent_ids
            )
        if axis in ("descendant", "attribute-descendant"):
            lows = self._descendant_lows(child, child_matches)
            return self._filter(
                candidates, lambda entry: _has_low_inside(lows, entry)
            )
        # Axis-engine edges: filter the parent's candidates by the
        # *inverse* relation against the child's match set.
        if axis == "self":
            match_ids = _id_set(child_matches)
            return self._filter(
                candidates, lambda entry: id(entry) in match_ids
            )
        if axis == "descendant-or-self":
            match_ids = _id_set(child_matches)
            lows = self._descendant_lows(child, child_matches)
            return self._filter(
                candidates,
                lambda entry: id(entry) in match_ids
                or _has_low_inside(lows, entry),
            )
        if axis == "parent":
            match_ids = _id_set(child_matches)
            return self._filter(
                candidates,
                lambda entry: entry.parent is not None
                and id(entry.parent) in match_ids,
            )
        if axis in ("ancestor", "ancestor-or-self"):
            match_ids = _id_set(child_matches)
            or_self = axis == "ancestor-or-self"
            return self._filter(
                candidates,
                lambda entry: (or_self and id(entry) in match_ids)
                or self._has_surviving_ancestor(entry, match_ids),
            )
        if axis in ORDER_EDGES:
            # a match can follow the candidate ⇔ the candidate can
            # precede that match (and mirrored for the preceding axes)
            return _order_filter(
                candidates,
                child_matches,
                precede=axis.startswith("following"),
                sibling=axis.endswith("-sibling"),
            )
        raise ValueError(f"unexpected pattern axis {axis!r}")

    def _descendant_lows(
        self, child: TranslatedNode, child_matches: list[IndexEntry]
    ) -> list[float]:
        """Sorted low bounds of the child's match set.

        A leaf pattern node with a single lookup key and no value
        constraint matches exactly its per-tag entry list, so the
        structural index's precomputed sorted array is used verbatim;
        anything narrower (constrained, multi-key, or join-filtered)
        falls back to sorting the actual match set.
        """
        if (
            not child.children
            and not child.has_value_constraint
            and len(child.keys) == 1
        ):
            return self._structure.sorted_lows(child.keys[0])
        return sorted(match.interval.low for match in child_matches)

    # ------------------------------------------------------------------
    # Top-down phase: keep only entries reachable from surviving parents
    # ------------------------------------------------------------------
    def _prune_down(
        self,
        node: TranslatedNode,
        node_survivors: list[IndexEntry],
        survivors: dict[int, set[int]],
        ordered: dict[int, list[IndexEntry]],
    ) -> None:
        parent_ids = _id_set(node_survivors)
        for child in node.children:
            child_matches = self._match_sets.get(id(child), [])
            surviving = self._prune_child(
                child, child_matches, node_survivors, parent_ids
            )
            survivors[id(child)] = _id_set(surviving)
            ordered[id(child)] = surviving
            self._prune_down(child, surviving, survivors, ordered)

    def _prune_child(
        self,
        child: TranslatedNode,
        child_matches: list[IndexEntry],
        node_survivors: list[IndexEntry],
        parent_ids: set[int],
    ) -> list[IndexEntry]:
        """Keep child matches related (forward axis) to a survivor."""
        axis = child.axis
        if axis in ("child", "attribute"):
            return self._filter(
                child_matches,
                lambda entry: entry.parent is not None
                and id(entry.parent) in parent_ids,
            )
        if axis in ("descendant", "attribute-descendant"):
            return self._filter(
                child_matches,
                lambda entry: self._has_surviving_ancestor(
                    entry, parent_ids
                ),
            )
        if axis == "self":
            return self._filter(
                child_matches, lambda entry: id(entry) in parent_ids
            )
        if axis == "descendant-or-self":
            return self._filter(
                child_matches,
                lambda entry: id(entry) in parent_ids
                or self._has_surviving_ancestor(entry, parent_ids),
            )
        if axis == "parent":
            image = {
                id(entry.parent)
                for entry in node_survivors
                if entry.parent is not None
            }
            return self._filter(
                child_matches, lambda entry: id(entry) in image
            )
        if axis in ("ancestor", "ancestor-or-self"):
            lows = sorted(
                entry.interval.low for entry in node_survivors
            )
            or_self = axis == "ancestor-or-self"
            return self._filter(
                child_matches,
                lambda entry: (or_self and id(entry) in parent_ids)
                or _has_low_inside(lows, entry),
            )
        if axis in ORDER_EDGES:
            return _order_filter(
                child_matches,
                node_survivors,
                precede=axis.startswith("preceding"),
                sibling=axis.endswith("-sibling"),
            )
        raise ValueError(f"unexpected pattern axis {axis!r}")

    @staticmethod
    def _has_surviving_ancestor(
        entry: IndexEntry, ancestor_ids: set[int]
    ) -> bool:
        current = entry.parent
        while current is not None:
            if id(current) in ancestor_ids:
                return True
            current = current.parent
        return False

    @staticmethod
    def _root_axis_ok(axis: str, entry: IndexEntry) -> bool:
        if axis == "root-child":
            return entry.parent is None
        if axis == "root-descendant":
            return True
        raise ValueError(f"pattern root must use a root axis, got {axis!r}")


def _value_ok(
    node: TranslatedNode,
    entry: IndexEntry,
    blocks: "set[int] | None",
    holds: "Callable[[str], bool] | None",
) -> bool:
    if entry.block_id is not None:
        if node.value_ranges is None:
            # Only a plaintext predicate was sent, but this entry is
            # encrypted: the server cannot verify it — keep it (sound
            # superset; the client will re-check).
            return True
        assert blocks is not None
        return entry.block_id in blocks
    if holds is not None:
        value = entry.plaintext_value
        return value is not None and holds(value)
    # Encrypted-only predicate but this entry is plaintext: no
    # plaintext occurrence was expected, so nothing here can match.
    return False


def _id_set(entries: list[IndexEntry]) -> set[int]:
    return {id(entry) for entry in entries}


def _parent_key(entry: IndexEntry) -> "int | None":
    return id(entry.parent) if entry.parent is not None else None


def _order_filter(
    entries: list[IndexEntry],
    anchors: list[IndexEntry],
    precede: bool,
    sibling: bool,
) -> list[IndexEntry]:
    """Entries that can precede (else follow) some anchor, in order.

    The relaxed order tests of the table in :mod:`repro.xpath.axes`: an
    entry can precede some anchor iff its low bound undercuts the
    anchors' maximum high, and can follow one iff its high bound exceeds
    the anchors' minimum low.  ``sibling`` keeps one threshold per parent
    and tests each entry against its own parent's.
    """

    def key(entry: IndexEntry) -> "int | None":
        return _parent_key(entry) if sibling else None

    bounds: dict["int | None", float] = {}
    if precede:
        for anchor in anchors:
            k = key(anchor)
            bounds[k] = max(bounds.get(k, -inf), anchor.interval.high)
        return [
            entry
            for entry in entries
            if entry.interval.low < bounds.get(key(entry), -inf)
        ]
    for anchor in anchors:
        k = key(anchor)
        bounds[k] = min(bounds.get(k, inf), anchor.interval.low)
    return [
        entry
        for entry in entries
        if entry.interval.high > bounds.get(key(entry), inf)
    ]


def _has_low_inside(sorted_lows: list[float], entry: IndexEntry) -> bool:
    """Any match interval strictly inside ``entry`` (laminar shortcut)?"""
    left = bisect_right(sorted_lows, entry.interval.low)
    return left < len(sorted_lows) and sorted_lows[left] < entry.interval.high


def _label(node: TranslatedNode) -> str:
    return "|".join(node.keys) if node.keys else "*"
