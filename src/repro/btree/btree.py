"""A from-scratch B-tree with duplicate-tolerant entries and range scans.

The paper's value index is "a B-tree ... each data entry of the form
⟨evalue, Bid⟩" (§5.2).  OPESS's *scaling* step deliberately inserts the same
⟨evalue, Bid⟩ entry multiple times, so this tree maps each key to the *list*
of payloads inserted under it, preserving duplicates — the replicated entry
counts are exactly what the frequency-based attacker observes when profiling
the index.

The implementation is a classic Cormen-style B-tree parameterized by minimum
degree ``t`` (max ``2t − 1`` keys per node), supporting insertion, exact
search, inclusive range scans, in-order iteration and a structural invariant
checker used by the property-based tests.  Strictly increasing keys with
their payload runs are loaded bottom-up in one pass by
:meth:`BTree.from_runs` — the path every index (re)build takes, directly or
through :meth:`BTree.from_sorted`, which groups a key-ordered entry list
into runs first; :meth:`BTree.insert` is for one entry at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from operator import itemgetter
from typing import Any, Iterable, Iterator, Optional


class _BTreeNode:
    """One node: sorted keys, per-key payload lists, child pointers."""

    __slots__ = ("keys", "payloads", "children")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.payloads: list[list[Any]] = []
        self.children: list[_BTreeNode] = []

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BTree:
    """B-tree of minimum degree ``t`` (each node holds t−1 .. 2t−1 keys)."""

    def __init__(self, min_degree: int = 16) -> None:
        if min_degree < 2:
            raise ValueError("minimum degree must be at least 2")
        self._t = min_degree
        self._root = _BTreeNode()
        self._distinct_keys = 0
        self._entry_count = 0

    # ------------------------------------------------------------------
    # Bulk load
    # ------------------------------------------------------------------
    @classmethod
    def from_sorted(
        cls, entries: Iterable[tuple[Any, Any]], min_degree: int = 16
    ) -> "BTree":
        """Build a tree from ⟨key, payload⟩ entries in non-decreasing key order.

        Equivalent to inserting the entries one by one — same ``items()``,
        duplicates under one key keep the order they arrive in: equal
        neighbours are grouped into one run and the runs go to
        :meth:`from_runs`.  Raises ``ValueError`` if a key is smaller than
        its predecessor.
        """
        keys: list[Any] = []
        runs: list[list[Any]] = []
        for key, run in groupby(entries, key=itemgetter(0)):
            keys.append(key)
            runs.append([payload for _, payload in run])
        return cls.from_runs(keys, runs, min_degree)

    @classmethod
    def from_runs(
        cls, keys: list[Any], runs: list[list[Any]], min_degree: int = 16
    ) -> "BTree":
        """Build a tree from strictly increasing keys and their payload runs.

        ``runs[i]`` is every payload stored under ``keys[i]``, in order,
        and becomes that key's list in the tree (the caller hands it
        over).  Equivalent to inserting each run's payloads under its key
        one by one, but in one linear pass: nodes are cut bottom-up with
        each level's keys spread evenly over the fewest levels that hold
        them, which keeps every non-root node between ``t − 1`` and
        ``2t − 1`` keys.  Every run must be non-empty.  Raises
        ``ValueError`` if a key is not larger than its predecessor.
        """
        tree = cls(min_degree)
        for previous, key in zip(keys, keys[1:]):
            if not previous < key:
                raise ValueError(
                    f"bulk-load keys out of order: {key!r} after {previous!r}"
                )
        tree._entry_count = sum(map(len, runs))
        tree._distinct_keys = len(keys)
        height = 1
        while len(keys) > (2 * min_degree) ** height - 1:
            height += 1
        tree._root = tree._build(keys, runs, 0, len(keys), height)
        return tree

    def _build(
        self,
        keys: list[Any],
        payloads: list[list[Any]],
        low: int,
        high: int,
        height: int,
    ) -> _BTreeNode:
        """The subtree of ``height`` levels over ``keys[low:high]``.

        A non-root subtree of height ``h`` holds between ``t^h − 1`` and
        ``(2t)^h − 1`` keys, so any fan-out ``c`` with
        ``c·t^(h−1) ≤ n + 1 ≤ c·(2t)^(h−1)`` leaves every child a legal
        share; the largest such ``c`` keeps nodes closest to their minimum
        fill, and the shares differ by at most one key.
        """
        node = _BTreeNode()
        if height == 1:
            node.keys = keys[low:high]
            node.payloads = payloads[low:high]
            return node
        t = self._t
        count = high - low
        fanout = min(2 * t, (count + 1) // t ** (height - 1))
        share, extra = divmod(count - (fanout - 1), fanout)
        start = low
        for child in range(fanout):
            end = start + share + (1 if child < extra else 0)
            node.children.append(
                self._build(keys, payloads, start, end, height - 1)
            )
            if end < high:
                node.keys.append(keys[end])
                node.payloads.append(payloads[end])
            start = end + 1
        return node

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of entries (duplicates counted)."""
        return self._entry_count

    @property
    def distinct_keys(self) -> int:
        return self._distinct_keys

    def height(self) -> int:
        """Number of levels (a lone root is height 1)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    def node_count(self) -> int:
        """Total nodes, a proxy for index size (§5.2 size-vs-scaling cost)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, key: Any, payload: Any) -> None:
        """Insert one ⟨key, payload⟩ entry; duplicate keys accumulate."""
        root = self._root
        if len(root.keys) == 2 * self._t - 1:
            new_root = _BTreeNode()
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
            root = new_root
        self._insert_nonfull(root, key, payload)
        self._entry_count += 1

    def _split_child(self, parent: _BTreeNode, index: int) -> None:
        t = self._t
        child = parent.children[index]
        sibling = _BTreeNode()
        # Median moves up; right half moves to the new sibling.
        parent.keys.insert(index, child.keys[t - 1])
        parent.payloads.insert(index, child.payloads[t - 1])
        sibling.keys = child.keys[t:]
        sibling.payloads = child.payloads[t:]
        child.keys = child.keys[: t - 1]
        child.payloads = child.payloads[: t - 1]
        if not child.is_leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]
        parent.children.insert(index + 1, sibling)

    def _insert_nonfull(self, node: _BTreeNode, key: Any, payload: Any) -> None:
        while True:
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.payloads[index].append(payload)
                return
            if node.is_leaf:
                node.keys.insert(index, key)
                node.payloads.insert(index, [payload])
                self._distinct_keys += 1
                return
            child = node.children[index]
            if len(child.keys) == 2 * self._t - 1:
                self._split_child(node, index)
                if key == node.keys[index]:
                    node.payloads[index].append(payload)
                    return
                if key > node.keys[index]:
                    index += 1
            node = node.children[index]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def search(self, key: Any) -> list[Any]:
        """All payloads stored under ``key`` (empty list if absent)."""
        node = self._root
        while True:
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                return list(node.payloads[index])
            if node.is_leaf:
                return []
            node = node.children[index]

    def __contains__(self, key: Any) -> bool:
        return bool(self.search(key))

    def range_scan(
        self, low: Optional[Any] = None, high: Optional[Any] = None
    ) -> Iterator[tuple[Any, Any]]:
        """Yield ⟨key, payload⟩ entries with ``low <= key <= high``.

        ``None`` bounds are open; duplicates yield one tuple per stored
        payload.  This is the operation translated value predicates compile
        to (Fig. 7a turns every ``=``/``<``/... into a B-tree range query).
        """
        yield from self._scan(self._root, low, high)

    def _scan(
        self, node: _BTreeNode, low: Optional[Any], high: Optional[Any]
    ) -> Iterator[tuple[Any, Any]]:
        start = 0 if low is None else bisect_left(node.keys, low)
        for index in range(start, len(node.keys) + 1):
            if not node.is_leaf:
                # Descend left of keys[index] unless everything there < low.
                yield from self._scan(node.children[index], low, high)
            if index == len(node.keys):
                break
            key = node.keys[index]
            if high is not None and key > high:
                return
            if low is None or key >= low:
                for payload in node.payloads[index]:
                    yield key, payload

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All entries in key order."""
        yield from self.range_scan(None, None)

    def keys(self) -> Iterator[Any]:
        """Distinct keys in order."""
        previous_sentinel = object()
        previous: Any = previous_sentinel
        for key, _ in self.items():
            if previous is previous_sentinel or key != previous:
                yield key
                previous = key

    def min_key(self) -> Any:
        """Smallest key (raises on an empty tree) — supports MIN queries."""
        node = self._root
        if not node.keys:
            raise KeyError("empty tree")
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    def max_key(self) -> Any:
        """Largest key (raises on an empty tree) — supports MAX queries."""
        node = self._root
        if not node.keys:
            raise KeyError("empty tree")
        while not node.is_leaf:
            node = node.children[-1]
        return node.keys[-1]

    # ------------------------------------------------------------------
    # Invariant checking (for tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if any B-tree invariant is violated."""
        leaf_depths: set[int] = set()
        self._check_node(self._root, None, None, is_root=True, depth=0,
                         leaf_depths=leaf_depths)
        assert len(leaf_depths) <= 1, "leaves at differing depths"

    def _check_node(
        self,
        node: _BTreeNode,
        low: Optional[Any],
        high: Optional[Any],
        is_root: bool,
        depth: int,
        leaf_depths: set[int],
    ) -> None:
        t = self._t
        assert len(node.keys) == len(node.payloads)
        if not is_root:
            assert len(node.keys) >= t - 1, "underfull node"
        assert len(node.keys) <= 2 * t - 1, "overfull node"
        assert node.keys == sorted(node.keys), "unsorted keys"
        for key in node.keys:
            if low is not None:
                assert key > low, "key below subtree bound"
            if high is not None:
                assert key < high, "key above subtree bound"
        for payload_list in node.payloads:
            assert payload_list, "empty payload list"
        if node.is_leaf:
            leaf_depths.add(depth)
            return
        assert len(node.children) == len(node.keys) + 1, "child count mismatch"
        bounds = [low] + node.keys + [high]
        for index, child in enumerate(node.children):
            self._check_node(
                child,
                bounds[index],
                bounds[index + 1],
                is_root=False,
                depth=depth + 1,
                leaf_depths=leaf_depths,
            )
