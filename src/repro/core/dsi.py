"""The discontinuous structural interval (DSI) index (§5.1).

The DSI index assigns every element and attribute an interval such that a
node's interval strictly contains those of its descendants, with *random
gaps* (weights ``w1, w2 ∈ (0, 0.5)`` known only to the client) between
adjacent intervals.  The gaps are what make the index discontinuous: unlike
the classic continuous interval scheme, the server cannot tell from the
geometry whether an interval in the index table represents one node or a
*group* of nodes — the information-hiding property behind Theorem 5.1.

The server-side metadata has two parts (Figure 4):

* the **DSI index table** — tag (Vernam-encrypted when the node is inside an
  encryption block) → list of intervals, with maximal runs of adjacent
  same-tag siblings in the same block merged into a single interval;
* the **encryption block table** — block id → representative interval (the
  interval of the block's root).

Because the DSI intervals form a laminar family, the axis predicates the
query processor needs reduce to interval geometry: *descendant* is strict
containment, and *child* is the paper's derived form — containment with no
table entry strictly in between — which this module precomputes as an
explicit parent pointer per entry via a single stack sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.crypto.prf import DeterministicRandom
from repro.obs.span import count
from repro.xmldb.node import Document, Element, Node

#: Intervals thinner than this lose float resolution for strict-containment
#: tests; documents deep/wide enough to hit it need a wider number type.
_MIN_WIDTH = 1e-12


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open-feeling closed interval [low, high] with strict nesting."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"degenerate interval [{self.low}, {self.high}]")

    def contains(self, other: "Interval") -> bool:
        """Strict containment: gaps guarantee ancestors strictly enclose."""
        return self.low < other.low and other.high < self.high

    def __str__(self) -> str:
        return f"[{self.low:.6f}, {self.high:.6f}]"


def assign_intervals(
    document: Document, weights: DeterministicRandom
) -> dict[int, Interval]:
    """Run the Figure 3 ``calInterval`` algorithm over the whole document.

    Returns node_id → interval for every element and attribute.  The
    indexable children of an element are its attributes followed by its
    element children (text leaves share their parent's interval).  Per the
    paper, fresh weights ``w1, w2`` are drawn for every child.
    """
    intervals: dict[int, Interval] = {}
    root = document.root
    intervals[root.node_id] = Interval(0.0, 1.0)
    stack: list[tuple[Element, int]] = [(root, 0)]
    while stack:
        parent, depth = stack.pop()
        parent_interval = intervals[parent.node_id]
        children = _indexable_children(parent)
        if not children:
            continue
        count = len(children)
        spacing = (parent_interval.high - parent_interval.low) / (2 * count + 1)
        if spacing < _MIN_WIDTH:
            raise ValueError(
                "document too deep/wide for float DSI intervals; "
                f"interval spacing underflowed at node {parent.node_id} "
                f"(depth {depth}, fanout {count}: each level divides its "
                f"interval by 2*fanout+1, and spacing fell below "
                f"{_MIN_WIDTH:g}); regroup the document into shallower "
                "bulk-load batches (host subtrees as separate databases) "
                "or widen the number type"
            )
        for position, child in enumerate(children, start=1):
            w1 = weights.uniform(0.0, 0.5)
            w2 = weights.uniform(0.0, 0.5)
            low = parent_interval.low + (2 * position - 1) * spacing - spacing * w1
            high = parent_interval.low + 2 * position * spacing + w2 * spacing
            intervals[child.node_id] = Interval(low, high)
            if isinstance(child, Element):
                stack.append((child, depth + 1))
    return intervals


def _indexable_children(parent: Element) -> list[Node]:
    children: list[Node] = list(parent.attributes)
    children.extend(
        child for child in parent.children if isinstance(child, Element)
    )
    return children


@dataclass
class IndexEntry:
    """One row of the DSI index table.

    ``key`` is the (possibly encrypted) tag; ``interval`` may cover a group
    of adjacent same-tag siblings.  ``member_ids`` (client-side knowledge,
    used only by tests and the trace) lists the grouped nodes.  ``parent``
    is the immediate enclosing entry — the precomputed child-axis relation.
    """

    key: str
    interval: Interval
    member_ids: tuple[int, ...]
    block_id: Optional[int] = None
    parent: Optional["IndexEntry"] = None
    children: list["IndexEntry"] = field(default_factory=list)
    #: For *plaintext* entries only: the leaf value and the hosted node.
    #: Both are information the server legitimately sees (the node is in
    #: the clear in the hosted tree); they are attached at hosting time so
    #: the server can check plaintext predicates and ship subtrees without
    #: re-deriving the geometry↔tree alignment.
    plaintext_value: Optional[str] = None
    hosted_node: Optional[Node] = None


@dataclass
class StructuralIndex:
    """The server-side structural metadata: DSI table + block table.

    Invariant: every edit of an entry list, a parent link or a plaintext
    value stamps its key (:attr:`key_stamps`) with the epoch the write
    commits as.  A join reads nothing else of the index but the entries
    its keys name, their parent links and values, so it is unchanged
    while none of those keys is stamped since it ran — and the server
    keeps its roots that long.  Any new way of editing the index (a
    relabeller, say) must keep this.
    """

    #: key (plaintext tag, ``@attr`` or ciphertext token) → entries
    table: dict[str, list[IndexEntry]]
    #: block id → representative interval (the encryption block table)
    block_table: dict[int, Interval]
    #: all entries, sorted by interval low bound (the laminar forest)
    entries: list[IndexEntry]
    #: lazily built per-tag sorted low-bound arrays (static-data cache for
    #: the descendant joins; an edited tag's array is dropped by
    #: :meth:`invalidate_caches`).  Unlocked: a served tenant runs one
    #: request at a time, so no two joins build or drop one at once.
    _lows_by_key: dict[str, list[float]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: key → the epoch of the last write that edited its entries (see
    #: the class invariant).  Sparse, derived, never persisted: a reload
    #: starts the server with no join to keep.
    key_stamps: dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def lookup(self, key: str) -> list[IndexEntry]:
        """Intervals registered under a (translated) tag."""
        return self.table.get(key, [])

    def all_entries(self) -> list[IndexEntry]:
        return self.entries

    # ------------------------------------------------------------------
    # Static-data cache: per-tag sorted interval arrays
    # ------------------------------------------------------------------
    def sorted_lows(self, key: str) -> list[float]:
        """Sorted interval low bounds of a tag's entries, computed once.

        The descendant-axis join probes these arrays with binary search
        on every query; building them per query re-sorted the same
        static data over and over, so the index now owns one array per
        tag, built on first use and dropped when that tag's entry list is
        edited (see :meth:`invalidate_caches`).
        """
        cached = self._lows_by_key.get(key)
        if cached is not None:
            count("interval_cache_hits")
            return cached
        count("interval_cache_misses")
        lows = self._lows_by_key[key] = sorted(
            entry.interval.low for entry in self.table.get(key, [])
        )
        return lows

    def invalidate_caches(self, keys: Iterable[str], stamp: int) -> None:
        """Drop the sorted arrays of ``keys`` and stamp them: whoever adds
        or removes an entry names the tags whose lists it edited.  A
        value update edits none, so it drops none (:meth:`stamp`)."""
        for key in keys:
            self._lows_by_key.pop(key, None)
            self.key_stamps[key] = stamp

    def stamp(self, key: str, stamp: int) -> None:
        """Record that the write committing as ``stamp`` edited what a
        join reads under ``key`` without moving an entry: a plaintext
        value, which a predicate compares."""
        self.key_stamps[key] = stamp


def build_structural_index(
    document: Document,
    intervals: dict[int, Interval],
    block_root_ids: frozenset[int],
    block_ids: dict[int, int],
    encode_tag: Callable[[str], str],
) -> StructuralIndex:
    """Build the DSI index table and encryption block table.

    ``block_ids`` maps block-root node ids to block ids.  ``encode_tag``
    is the client's deterministic Vernam tag cipher; it is applied to the
    tags of nodes that live inside an encryption block (the server must
    not learn those), while plaintext nodes keep their clear tags
    (Figure 4b shows both kinds side by side).
    """
    owning_block = owning_blocks(document, block_root_ids, block_ids)

    table: dict[str, list[IndexEntry]] = {}
    entries: list[IndexEntry] = []

    def add_entry(
        key: str, interval: Interval, members: tuple[int, ...], block: Optional[int]
    ) -> None:
        entry = IndexEntry(key, interval, members, block)
        table.setdefault(key, []).append(entry)
        entries.append(entry)

    # Walk parents and emit entries, grouping adjacent same-tag element
    # children that live in the same block (§5.1.1's grouping rule).
    root = document.root
    root_block = owning_block.get(root.node_id)
    add_entry(
        _key_for(root.tag, root_block, encode_tag),
        intervals[root.node_id],
        (root.node_id,),
        root_block,
    )
    stack: list[Element] = [root]
    while stack:
        parent = stack.pop()
        for attribute in parent.attributes:
            block = owning_block.get(attribute.node_id)
            add_entry(
                _key_for(f"@{attribute.name}", block, encode_tag),
                intervals[attribute.node_id],
                (attribute.node_id,),
                block,
            )
        run: list[Element] = []

        def flush_run() -> None:
            if not run:
                return
            block = owning_block.get(run[0].node_id)
            merged = Interval(
                intervals[run[0].node_id].low,
                intervals[run[-1].node_id].high,
            )
            add_entry(
                _key_for(run[0].tag, block, encode_tag),
                merged,
                tuple(node.node_id for node in run),
                block,
            )
            run.clear()

        for child in parent.children:
            if not isinstance(child, Element):
                continue
            stack.append(child)
            if run and _can_group(run[-1], child, owning_block):
                run.append(child)
                continue
            flush_run()
            run.append(child)
        flush_run()

    entries.sort(key=lambda entry: (entry.interval.low, -entry.interval.high))
    for key_entries in table.values():
        key_entries.sort(key=lambda entry: entry.interval.low)
    _link_parents(entries)

    block_table = {
        block_ids[root_id]: intervals[root_id] for root_id in block_root_ids
    }
    return StructuralIndex(table=table, block_table=block_table, entries=entries)


def owning_blocks(
    document: Document,
    block_root_ids: frozenset[int],
    block_ids: dict[int, int],
) -> dict[int, int]:
    """node_id → block id for every node at or below a block root."""
    owning: dict[int, int] = {}
    for root_id in block_root_ids:
        root = document.node_by_id(root_id)
        block = block_ids[root_id]
        assert isinstance(root, Element)
        for node in root.iter():
            owning[node.node_id] = block
            if isinstance(node, Element):
                for attribute in node.attributes:
                    owning[attribute.node_id] = block
    return owning


def _key_for(
    tag: str, block: Optional[int], encode_tag: Callable[[str], str]
) -> str:
    """Plaintext tag outside blocks; Vernam token inside."""
    if block is None:
        return tag
    return encode_tag(tag)


def _can_group(
    previous: Element, current: Element, owning_block: dict[int, int]
) -> bool:
    """Adjacent same-tag siblings, both encrypted in the same block."""
    if previous.tag != current.tag:
        return False
    prev_block = owning_block.get(previous.node_id)
    curr_block = owning_block.get(current.node_id)
    return prev_block is not None and prev_block == curr_block


def _link_parents(sorted_entries: list[IndexEntry]) -> None:
    """Single stack sweep computing immediate-parent pointers.

    The entries form a laminar family (nested or disjoint), so after
    sorting by low bound the nearest open enclosing interval is the parent.
    This materializes the paper's derived child axis:
    ``child(x, y) ⇔ desc(x, y) ∧ ¬∃z: desc(x, z) ∧ desc(z, y)``.
    """
    stack: list[IndexEntry] = []
    for entry in sorted_entries:
        while stack and not stack[-1].interval.contains(entry.interval):
            stack.pop()
        if stack:
            entry.parent = stack[-1]
            stack[-1].children.append(entry)
        stack.append(entry)
