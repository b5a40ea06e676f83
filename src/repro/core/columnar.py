"""Columnar DSI backend: flat plane arrays + vectorized structural joins.

The object-walk matcher in :mod:`repro.core.structural_join` evaluates
axis predicates entry-by-entry over a dict-of-lists
:class:`~repro.core.dsi.StructuralIndex` — per-candidate Python lambdas,
per-entry attribute loads, a parent *pointer* chase per prune.  The DSI
index is interval geometry over a laminar family, so all of that is
natively columnar: this module re-encodes the index table and the
encryption-block table into flat, low-sorted plane arrays
(:class:`ColumnarPlanes`, stdlib ``array``/``memoryview``) and
re-implements the join's axis predicates as galloping-bisect/merge
sweeps over those planes.

Byte-identity contract
----------------------
``match_pattern_columnar`` produces the *same* match sets, in the *same*
order, with the same per-node candidate counts as
:func:`~repro.core.structural_join.match_pattern` — the backend knob
changes the representation the join runs over, never the answer bytes
(asserted workload-by-workload in ``tests/test_columnar_backend.py``).
The correspondences:

* candidate lists — the per-tag plane stores each tag's entry ids sorted
  by interval low bound, exactly the per-key lists of the object table;
* *descendant* — ``bisect_right`` over the sorted low plane, galloped
  forward along the (low-sorted) candidate run instead of restarted per
  candidate;
* *child* / *attribute* — the precomputed parent pointers become a flat
  ``parents`` id plane; "any child in the match set" is evaluated as
  membership of the candidate in the match set's parent-image set, which
  is equivalent on a laminar family;
* top-down pruning — the object path's parent-chain walk, over the
  ``parents`` plane.

The planes are position-indexed: entry id == position in the global
(low, -high)-sorted order, which is exactly
``StructuralIndex.all_entries()`` order.  Persistence (mmap-backed
loads) lives in :mod:`repro.core.colstore`.
"""

from __future__ import annotations

import os
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.core.dsi import IndexEntry, Interval, StructuralIndex
from repro.core.structural_join import MatchResult
from repro.core.translate import TranslatedNode, TranslatedQuery
from repro.perf import counters
from repro.xpath.evaluator import compare_values

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.opess import ValueIndex
    from repro.obs import Observability
    from repro.xmldb.node import Node

# ----------------------------------------------------------------------
# Backend knob (``backend=`` API / REPRO_BACKEND env / --backend CLI)
# ----------------------------------------------------------------------

#: Environment knob read by :func:`backend_from_env`.
BACKEND_ENV = "REPRO_BACKEND"

#: The two join-engine representations a server can run over.
BACKENDS = ("object", "columnar")

DEFAULT_BACKEND = "object"


def backend_from_env() -> str:
    """Read ``REPRO_BACKEND`` (unset → the object-walk default)."""
    raw = os.environ.get(BACKEND_ENV, "").strip().lower()
    if not raw:
        return DEFAULT_BACKEND
    if raw not in BACKENDS:
        raise ValueError(
            f"{BACKEND_ENV} must be one of {BACKENDS}, got {raw!r}"
        )
    return raw


def resolve_backend(backend: Any) -> str:
    """Normalize the ``backend=`` argument accepted across the stack.

    ``None`` defers to the environment; a string names the backend
    (case-insensitive).  Mirrors the coercion convention of
    :meth:`~repro.cluster.placement.ClusterConfig.coerce`.
    """
    if backend is None:
        return backend_from_env()
    if isinstance(backend, str):
        name = backend.strip().lower()
        if name not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        return name
    raise TypeError(
        f"backend must be None or one of {BACKENDS}, "
        f"got {type(backend).__name__}"
    )


# ----------------------------------------------------------------------
# The planes
# ----------------------------------------------------------------------

_NO_ID = -1


@dataclass
class ColumnarPlanes:
    """The DSI index + block table as flat, position-indexed arrays.

    Entry id == position in the global low-sorted entry order.  Every
    plane is either a stdlib ``array`` (in-heap builds) or a
    ``memoryview`` cast over an ``mmap`` (zero-copy loads, see
    :mod:`repro.core.colstore`) — both support indexing, slicing and
    ``bisect``, so the sweep kernels never care which they got.
    """

    # --- global-order planes (one element per entry) ---
    lows: Any
    highs: Any
    key_ids: Any  # index into :attr:`keys`
    block_ids: Any  # -1 = plaintext entry
    parents: Any  # entry id of the immediate parent, -1 = root
    hosted_ids: Any  # hosted node id, -1 = none attached
    # --- ragged member-id plane (offsets length n+1) ---
    member_offsets: Any
    member_ids: Any
    # --- ragged plaintext-value plane (flag distinguishes None from "") ---
    value_flags: Any
    value_offsets: Any
    value_blob: Any
    # --- per-tag plane: entry ids grouped by key, each run low-sorted ---
    tag_entry_ids: Any
    tag_lows: Any  # aligned with tag_entry_ids
    #: key → (start, stop) slice into the tag plane (the slice-offset
    #: memo the epoch invalidation must drop wholesale with the planes)
    tag_slices: dict[str, tuple[int, int]]
    keys: tuple[str, ...]
    # --- encryption block table ---
    block_table_ids: Any
    block_table_lows: Any
    block_table_highs: Any
    #: The mmap (or buffer) backing the views; ``None`` for in-heap
    #: builds.  Held so the mapping outlives every view into it.
    source: Any = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, index: StructuralIndex) -> "ColumnarPlanes":
        """Re-encode a built object index (entry order is preserved)."""
        entries = index.all_entries()
        position = {id(entry): pos for pos, entry in enumerate(entries)}
        keys = tuple(index.table.keys())
        key_pos = {key: pos for pos, key in enumerate(keys)}

        lows = array("d")
        highs = array("d")
        key_ids = array("q")
        block_ids = array("q")
        parents = array("q")
        hosted_ids = array("q")
        member_offsets = array("q", [0])
        member_ids = array("q")
        value_flags = array("b")
        value_offsets = array("q", [0])
        value_parts: list[bytes] = []
        for entry in entries:
            lows.append(entry.interval.low)
            highs.append(entry.interval.high)
            key_ids.append(key_pos[entry.key])
            block_ids.append(
                _NO_ID if entry.block_id is None else entry.block_id
            )
            parent = entry.parent
            parents.append(
                _NO_ID if parent is None else position[id(parent)]
            )
            hosted_ids.append(
                _NO_ID
                if entry.hosted_node is None
                else entry.hosted_node.node_id
            )
            member_ids.extend(entry.member_ids)
            member_offsets.append(len(member_ids))
            value = entry.plaintext_value
            value_flags.append(0 if value is None else 1)
            if value:
                value_parts.append(value.encode("utf-8"))
            value_offsets.append(
                value_offsets[-1] + (len(value_parts[-1]) if value else 0)
            )

        tag_entry_ids = array("q")
        tag_lows = array("d")
        tag_slices: dict[str, tuple[int, int]] = {}
        for key in keys:
            start = len(tag_entry_ids)
            for entry in index.table[key]:
                tag_entry_ids.append(position[id(entry)])
                tag_lows.append(entry.interval.low)
            tag_slices[key] = (start, len(tag_entry_ids))

        block_table_ids = array("q")
        block_table_lows = array("d")
        block_table_highs = array("d")
        for block_id, interval in index.block_table.items():
            block_table_ids.append(block_id)
            block_table_lows.append(interval.low)
            block_table_highs.append(interval.high)

        counters.add("columnar_plane_builds")
        return cls(
            lows=lows,
            highs=highs,
            key_ids=key_ids,
            block_ids=block_ids,
            parents=parents,
            hosted_ids=hosted_ids,
            member_offsets=member_offsets,
            member_ids=member_ids,
            value_flags=value_flags,
            value_offsets=value_offsets,
            value_blob=b"".join(value_parts),
            tag_entry_ids=tag_entry_ids,
            tag_lows=tag_lows,
            tag_slices=tag_slices,
            keys=keys,
            block_table_ids=block_table_ids,
            block_table_lows=block_table_lows,
            block_table_highs=block_table_highs,
        )

    @classmethod
    def from_records(
        cls,
        records: Iterable[dict],
        block_table: "dict[int, tuple[float, float]] | None" = None,
    ) -> "ColumnarPlanes":
        """Bulk-load planes straight from persisted DSI records.

        ``records`` is the ``server_meta.json`` ``"dsi"`` schema (``key``
        / ``low`` / ``high`` / ``members`` / ``block`` / ``parent`` /
        ``value`` / ``hosted_id``), already in global low-sorted order
        with ``parent`` as an index into that order — so the planes are
        filled in one streaming pass and no :class:`IndexEntry` list is
        ever materialized.  This is the O(1)-garbage ingest path the
        storage layer and the scaling benchmark use.
        """
        lows = array("d")
        highs = array("d")
        key_ids = array("q")
        block_ids = array("q")
        parents = array("q")
        hosted_ids = array("q")
        member_offsets = array("q", [0])
        member_ids = array("q")
        value_flags = array("b")
        value_offsets = array("q", [0])
        value_parts: list[bytes] = []
        keys: list[str] = []
        key_pos: dict[str, int] = {}
        # Per-key positions accumulate in arrival order, which is already
        # sorted by low — identical to the object table's per-key lists.
        per_key: dict[str, array] = {}

        for pos, record in enumerate(records):
            key = record["key"]
            key_id = key_pos.get(key)
            if key_id is None:
                key_id = len(keys)
                key_pos[key] = key_id
                keys.append(key)
                per_key[key] = array("q")
            lows.append(record["low"])
            highs.append(record["high"])
            key_ids.append(key_id)
            block = record["block"]
            block_ids.append(_NO_ID if block is None else block)
            parent = record["parent"]
            parents.append(_NO_ID if parent is None else parent)
            hosted = record["hosted_id"]
            hosted_ids.append(_NO_ID if hosted is None else hosted)
            member_ids.extend(record["members"])
            member_offsets.append(len(member_ids))
            value = record["value"]
            value_flags.append(0 if value is None else 1)
            if value:
                value_parts.append(value.encode("utf-8"))
            value_offsets.append(
                value_offsets[-1] + (len(value_parts[-1]) if value else 0)
            )
            per_key[key].append(pos)

        tag_entry_ids = array("q")
        tag_lows = array("d")
        tag_slices: dict[str, tuple[int, int]] = {}
        for key in keys:
            start = len(tag_entry_ids)
            for pos in per_key[key]:
                tag_entry_ids.append(pos)
                tag_lows.append(lows[pos])
            tag_slices[key] = (start, len(tag_entry_ids))

        block_table_ids = array("q")
        block_table_lows = array("d")
        block_table_highs = array("d")
        for block_id, (low, high) in (block_table or {}).items():
            block_table_ids.append(int(block_id))
            block_table_lows.append(low)
            block_table_highs.append(high)

        counters.add("columnar_plane_builds")
        return cls(
            lows=lows,
            highs=highs,
            key_ids=key_ids,
            block_ids=block_ids,
            parents=parents,
            hosted_ids=hosted_ids,
            member_offsets=member_offsets,
            member_ids=member_ids,
            value_flags=value_flags,
            value_offsets=value_offsets,
            value_blob=b"".join(value_parts),
            tag_entry_ids=tag_entry_ids,
            tag_lows=tag_lows,
            tag_slices=tag_slices,
            keys=tuple(keys),
            block_table_ids=block_table_ids,
            block_table_lows=block_table_lows,
            block_table_highs=block_table_highs,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return len(self.lows)

    def key_of(self, entry_id: int) -> str:
        return self.keys[self.key_ids[entry_id]]

    def block_of(self, entry_id: int) -> Optional[int]:
        block = self.block_ids[entry_id]
        return None if block == _NO_ID else int(block)

    def members_of(self, entry_id: int) -> tuple[int, ...]:
        start = self.member_offsets[entry_id]
        stop = self.member_offsets[entry_id + 1]
        # array/memoryview slices tuple-ify at C speed and yield ints.
        return tuple(self.member_ids[start:stop])

    def value_of(self, entry_id: int) -> Optional[str]:
        if not self.value_flags[entry_id]:
            return None
        start = self.value_offsets[entry_id]
        stop = self.value_offsets[entry_id + 1]
        return bytes(self.value_blob[start:stop]).decode("utf-8")

    def tag_slice(self, key: str) -> "tuple[Any, Any]":
        """(entry ids, aligned lows) registered under one tag key."""
        span = self.tag_slices.get(key)
        if span is None:
            return (), ()
        start, stop = span
        return self.tag_entry_ids[start:stop], self.tag_lows[start:stop]

    def block_table_dict(self) -> dict[int, Interval]:
        return {
            int(block_id): Interval(low, high)
            for block_id, low, high in zip(
                self.block_table_ids,
                self.block_table_lows,
                self.block_table_highs,
            )
        }

    # ------------------------------------------------------------------
    # Plane-native geometry (cluster placement reads these)
    # ------------------------------------------------------------------
    def group_cutpoints(self, group_count: int) -> list[float]:
        """Interval-group cutpoints straight off the low plane.

        Same contiguous-span construction as
        :meth:`~repro.core.dsi.StructuralIndex.group_cutpoints`; the
        planes are in the identical order, so the values agree exactly —
        asserted by the cluster byte-identity sweep.
        """
        if group_count < 1:
            raise ValueError(f"group_count must be >= 1, got {group_count}")
        total = self.entry_count
        group_count = min(group_count, total) or 1
        base, extra = divmod(total, group_count)
        cutpoints: list[float] = []
        start = 0
        for group in range(group_count):
            cutpoints.append(
                float("-inf") if group == 0 else self.lows[start]
            )
            start += base + (1 if group < extra else 0)
        return cutpoints

    def hosted_node_lows(self) -> dict[int, float]:
        """Hosted node id → owning low bound, off the planes."""
        return {
            int(hosted): low
            for hosted, low in zip(self.hosted_ids, self.lows)
            if hosted != _NO_ID
        }

    def with_hosted_ids(self, renumbered: dict[int, int]) -> "ColumnarPlanes":
        """These planes with every attached hosted id mapped through
        ``renumbered``; rows with no hosted node keep the sentinel."""
        return replace(
            self,
            hosted_ids=array(
                "q",
                (
                    hosted if hosted == _NO_ID else renumbered[hosted]
                    for hosted in self.hosted_ids
                ),
            ),
        )

    # ------------------------------------------------------------------
    # Hydration: planes → object index rows (the update path)
    # ------------------------------------------------------------------
    def hydrate_entries(
        self, node_for: "Callable[[int], Node | None]"
    ) -> "tuple[list[IndexEntry], dict[str, list[IndexEntry]]]":
        """Materialize the full :class:`IndexEntry` forest from the planes.

        Inverse of :meth:`from_index`: same entry order, same per-key
        list order, parent/children links rewired.  Used by
        :class:`LazyStructuralIndex` the first time something needs the
        object rows (incremental updates, object-path joins).
        """
        entries: list[IndexEntry] = []
        for pos in range(self.entry_count):
            hosted = self.hosted_ids[pos]
            entries.append(
                IndexEntry(
                    key=self.key_of(pos),
                    interval=Interval(self.lows[pos], self.highs[pos]),
                    member_ids=self.members_of(pos),
                    block_id=self.block_of(pos),
                    plaintext_value=self.value_of(pos),
                    hosted_node=(
                        node_for(int(hosted)) if hosted != _NO_ID else None
                    ),
                )
            )
        for pos, entry in enumerate(entries):
            parent = self.parents[pos]
            if parent != _NO_ID:
                entry.parent = entries[parent]
                entries[parent].children.append(entry)
        table: dict[str, list[IndexEntry]] = {}
        for key, (start, stop) in self.tag_slices.items():
            table[key] = [
                entries[self.tag_entry_ids[i]] for i in range(start, stop)
            ]
        return entries, table


# ----------------------------------------------------------------------
# Galloping sweep kernels
# ----------------------------------------------------------------------


def _gallop_right(lows: Any, target: float, start: int) -> int:
    """First index ``>= start`` with ``lows[index] > target``.

    Exponential (galloping) probe to bound the answer, then a C-coded
    ``bisect_right`` inside the bound.  Correct whenever the true
    insertion point is ``>= start`` — guaranteed along a low-sorted
    candidate run, which is how the sweep calls it.
    """
    total = len(lows)
    if start >= total or lows[start] > target:
        return start
    step = 1
    hi = start + 1
    while hi < total and lows[hi] <= target:
        step <<= 1
        hi = start + step
    return bisect_right(lows, target, start + 1, min(hi, total))


def sweep_descendant(
    candidate_ids: "Iterable[int]",
    lows: Any,
    highs: Any,
    match_lows: Any,
) -> list[int]:
    """Keep candidates with a match low strictly inside their interval.

    One merge pass: the candidate run is low-sorted per tag segment, so
    the probe position only moves forward (galloping) within a segment
    and resets when a new segment's lows restart.  Equivalent to the
    object path's per-candidate ``bisect_right`` probe, minus the
    re-search from zero.
    """
    kept: list[int] = []
    total = len(match_lows)
    if not total:
        return kept
    probe = 0
    previous = float("-inf")
    for entry_id in candidate_ids:
        low = lows[entry_id]
        if low < previous:
            probe = 0  # new per-tag segment: candidate lows restarted
        previous = low
        probe = _gallop_right(match_lows, low, probe)
        if probe < total and match_lows[probe] < highs[entry_id]:
            kept.append(entry_id)
    return kept


def _low_inside(sorted_lows: Any, low: float, high: float) -> bool:
    """Any match low strictly inside (low, high)?  Laminar shortcut."""
    left = bisect_right(sorted_lows, low)
    return left < len(sorted_lows) and sorted_lows[left] < high


def sweep_following(
    candidate_ids: "Iterable[int]",
    lows: Any,
    highs: Any,
    threshold: float,
) -> list[int]:
    """Keep candidates whose high bound exceeds ``threshold``.

    The relaxed *following* test of the axis engine
    (:func:`repro.xpath.axes.can_follow`) over the planes.  Candidate
    runs are low-sorted per tag segment, so once a segment's lows cross
    the threshold every remaining member bulk-passes (``high > low >
    threshold``) without touching the highs plane — the sibling of
    :func:`sweep_descendant`'s forward-only galloping probe.
    """
    kept: list[int] = []
    append = kept.append
    previous = float("-inf")
    bulk = False
    for entry_id in candidate_ids:
        low = lows[entry_id]
        if low < previous:
            bulk = False  # new per-tag segment: candidate lows restarted
        previous = low
        if bulk or low > threshold:
            bulk = True
            append(entry_id)
        elif highs[entry_id] > threshold:
            append(entry_id)
    return kept


def sweep_preceding(
    candidate_ids: "Iterable[int]",
    lows: Any,
    threshold: float,
) -> list[int]:
    """Keep candidates whose low bound undercuts ``threshold``.

    The relaxed *preceding* test
    (:func:`repro.xpath.axes.can_precede`); the low plane alone decides
    it, so this is a single vectorized comparison pass.
    """
    return [
        entry_id
        for entry_id in candidate_ids
        if lows[entry_id] < threshold
    ]


def sweep_siblings(
    candidate_ids: "Iterable[int]",
    lows: Any,
    highs: Any,
    parents: Any,
    bounds_by_parent: "dict[int, tuple[float, float]]",
    following: bool,
) -> list[int]:
    """Sibling-axis sweep: the order test scoped per parent id.

    ``bounds_by_parent`` maps a parent entry id to the anchor set's
    ``(min low, max high)`` among its children; candidates whose parent
    has no anchor sibling drop immediately.
    """
    kept: list[int] = []
    append = kept.append
    get = bounds_by_parent.get
    for entry_id in candidate_ids:
        bounds = get(int(parents[entry_id]))
        if bounds is None:
            continue
        if following:
            if highs[entry_id] > bounds[0]:
                append(entry_id)
        elif lows[entry_id] < bounds[1]:
            append(entry_id)
    return kept


# ----------------------------------------------------------------------
# The columnar twig matcher
# ----------------------------------------------------------------------


def match_pattern_columnar(
    query: TranslatedQuery,
    planes: ColumnarPlanes,
    values: "ValueIndex",
    node_for: "Callable[[int], Node | None]",
    obs: "Observability | None" = None,
) -> MatchResult:
    """Run the structural join over the planes; byte-identical results.

    ``node_for`` resolves hosted node ids to live hosted-tree nodes for
    the surviving output/ship entries (the only place the columnar join
    touches objects).  ``obs`` wraps the whole match in a ``join_sweep``
    span.
    """
    counters.add("columnar_join_sweeps")
    matcher = _ColumnarMatcher(planes, values, node_for)
    if obs is not None and obs.enabled:
        with obs.tracer.span("join_sweep", entries=planes.entry_count):
            return matcher.run(query)
    return matcher.run(query)


class ColumnarEntry:
    """A surviving entry, rebuilt just enough for fragment assembly.

    Quacks like :class:`~repro.core.dsi.IndexEntry` for everything the
    server's fragment-root selection reads.  Only ``block_id`` and
    ``hosted_node`` are on the response hot path, so those two are
    eager; ``key`` / ``interval`` / ``member_ids`` /
    ``plaintext_value`` are read back off the planes on demand, which
    keeps materializing a thousand survivors to one small allocation
    apiece.
    """

    __slots__ = (
        "_planes",
        "_entry_id",
        "block_id",
        "hosted_node",
        "parent",
        "children",
    )

    def __init__(
        self,
        planes: ColumnarPlanes,
        entry_id: int,
        block_id: Optional[int],
        hosted_node: "Node | None",
    ) -> None:
        self._planes = planes
        self._entry_id = entry_id
        self.block_id = block_id
        self.hosted_node = hosted_node
        self.parent = None
        self.children: list = []

    @property
    def key(self) -> str:
        return self._planes.key_of(self._entry_id)

    @property
    def interval(self) -> Interval:
        return Interval(
            self._planes.lows[self._entry_id],
            self._planes.highs[self._entry_id],
        )

    @property
    def member_ids(self) -> tuple[int, ...]:
        return self._planes.members_of(self._entry_id)

    @property
    def plaintext_value(self) -> Optional[str]:
        return self._planes.value_of(self._entry_id)


class _ColumnarMatcher:
    """Bottom-up match + top-down prune over entry-id planes.

    Mirrors :class:`repro.core.structural_join._Matcher` stage for
    stage; every candidate list here is a list of entry ids (positions
    into the planes) instead of entry objects.
    """

    def __init__(
        self,
        planes: ColumnarPlanes,
        values: "ValueIndex",
        node_for: "Callable[[int], Node | None]",
    ) -> None:
        self._planes = planes
        self._values = values
        self._node_for = node_for
        self._match_sets: dict[int, list[int]] = {}
        self._counts: dict[str, int] = {}

    @staticmethod
    def _filter(entry_ids: list[int], predicate) -> list[int]:
        """Order-preserving filter step."""
        return [entry_id for entry_id in entry_ids if predicate(entry_id)]

    # ------------------------------------------------------------------
    # Bottom-up phase
    # ------------------------------------------------------------------
    def run(self, query: TranslatedQuery) -> MatchResult:
        planes = self._planes
        root_matches = self._match_subtree(query.root)
        axis = query.root.axis
        if axis == "root-child":
            root_matches = [
                entry_id
                for entry_id in root_matches
                if planes.parents[entry_id] == _NO_ID
            ]
        elif axis != "root-descendant":
            raise ValueError(
                f"pattern root must use a root axis, got {axis!r}"
            )

        survivors: dict[int, set[int]] = {id(query.root): set(root_matches)}
        ordered: dict[int, list[int]] = {id(query.root): root_matches}
        self._prune_down(query.root, root_matches, survivors, ordered)

        ship_ids: list[int] = []
        shipped: set[int] = set()
        for ship_node in query.ship_nodes:
            for entry_id in ordered.get(id(ship_node), []):
                if entry_id not in shipped:
                    shipped.add(entry_id)
                    ship_ids.append(entry_id)

        return MatchResult(
            output_entries=self._materialize(
                ordered.get(id(query.output), [])
            ),
            ship_entries=self._materialize(ship_ids),
            candidate_counts=dict(self._counts),
        )

    def _match_subtree(self, node: TranslatedNode) -> list[int]:
        cached = self._match_sets.get(id(node))
        if cached is not None:
            return cached

        candidates = self._candidates(node)
        self._counts[_label(node)] = len(candidates)

        for child in node.children:
            child_matches = self._match_subtree(child)
            if node.position_sensitive:
                # Mirror of the object matcher: positional nodes keep
                # their complete candidate list for the client's [n].
                continue
            if not child_matches:
                candidates = []
                break
            candidates = self._filter_by_child(
                candidates, child, child_matches
            )
            if not candidates:
                break

        self._match_sets[id(node)] = candidates
        return candidates

    def _candidates(self, node: TranslatedNode) -> list[int]:
        planes = self._planes
        if node.is_wildcard:
            entry_ids = list(range(planes.entry_count))
        else:
            entry_ids = []
            for key in node.keys:
                ids, _ = planes.tag_slice(key)
                entry_ids.extend(ids)
        if not node.has_value_constraint:
            return entry_ids
        blocks: "set[int] | None" = None
        if node.value_ranges is not None and node.value_field_token is not None:
            blocks = self._values.lookup_blocks(
                node.value_field_token, node.value_ranges
            )
        return self._filter(
            entry_ids,
            lambda entry_id: self._value_ok(node, entry_id, blocks),
        )

    def _value_ok(
        self,
        node: TranslatedNode,
        entry_id: int,
        blocks: "set[int] | None",
    ) -> bool:
        planes = self._planes
        if planes.block_ids[entry_id] != _NO_ID:
            if node.value_ranges is None:
                # Sound superset: an encrypted entry cannot be checked
                # against a plaintext-only predicate server-side.
                return True
            assert blocks is not None
            return int(planes.block_ids[entry_id]) in blocks
        if node.plaintext_predicate is not None:
            value = planes.value_of(entry_id)
            if value is None:
                return False
            op, literal = node.plaintext_predicate
            return compare_values(value, op, literal)
        return False

    def _filter_by_child(
        self,
        candidates: list[int],
        child: TranslatedNode,
        child_matches: list[int],
    ) -> list[int]:
        axis = child.axis
        planes = self._planes
        if axis in ("child", "attribute"):
            # "some child of mine is in the match set" ⇔ "I am some
            # match's parent": one parent-plane image set instead of a
            # per-candidate children scan.
            parent_image = {
                int(planes.parents[match]) for match in child_matches
            }
            parent_image.discard(_NO_ID)
            return self._filter(
                candidates, parent_image.__contains__
            )
        if axis in ("descendant", "attribute-descendant"):
            match_lows = self._descendant_lows(child, child_matches)
            return sweep_descendant(
                candidates, planes.lows, planes.highs, match_lows
            )
        # Axis-engine edges (inverse tests; mirrors the object matcher).
        if axis == "self":
            match_set = set(child_matches)
            return self._filter(candidates, match_set.__contains__)
        if axis == "descendant-or-self":
            match_set = set(child_matches)
            match_lows = self._descendant_lows(child, child_matches)
            lows = planes.lows
            highs = planes.highs
            return self._filter(
                candidates,
                lambda entry_id: entry_id in match_set
                or _low_inside(match_lows, lows[entry_id], highs[entry_id]),
            )
        if axis == "parent":
            match_set = set(child_matches)
            parents = planes.parents
            return self._filter(
                candidates,
                lambda entry_id: parents[entry_id] != _NO_ID
                and int(parents[entry_id]) in match_set,
            )
        if axis in ("ancestor", "ancestor-or-self"):
            match_set = set(child_matches)
            or_self = axis == "ancestor-or-self"
            return self._filter(
                candidates,
                lambda entry_id: (or_self and entry_id in match_set)
                or self._has_surviving_ancestor(entry_id, match_set),
            )
        if axis in ("following", "preceding"):
            bounds = self._order_bounds(child_matches)
            if bounds is None:
                return []
            min_low, max_high = bounds
            if axis == "following":
                # candidate must be able to precede some match
                return sweep_preceding(candidates, planes.lows, max_high)
            return sweep_following(
                candidates, planes.lows, planes.highs, min_low
            )
        if axis in ("following-sibling", "preceding-sibling"):
            bounds_by_parent = self._sibling_bounds(child_matches)
            return sweep_siblings(
                candidates,
                planes.lows,
                planes.highs,
                planes.parents,
                bounds_by_parent,
                following=axis == "preceding-sibling",
            )
        raise ValueError(f"unexpected pattern axis {axis!r}")

    def _descendant_lows(
        self, child: TranslatedNode, child_matches: list[int]
    ) -> Any:
        """Sorted match low bounds; the per-tag plane when it's exact."""
        if (
            not child.children
            and not child.has_value_constraint
            and len(child.keys) == 1
        ):
            _, tag_lows = self._planes.tag_slice(child.keys[0])
            return tag_lows
        lows = self._planes.lows
        return sorted(lows[match] for match in child_matches)

    # ------------------------------------------------------------------
    # Top-down phase
    # ------------------------------------------------------------------
    def _prune_down(
        self,
        node: TranslatedNode,
        node_survivors: list[int],
        survivors: dict[int, set[int]],
        ordered: dict[int, list[int]],
    ) -> None:
        parent_ids = set(node_survivors)
        for child in node.children:
            child_matches = self._match_sets.get(id(child), [])
            surviving = self._prune_child(
                child, child_matches, node_survivors, parent_ids
            )
            survivors[id(child)] = set(surviving)
            ordered[id(child)] = surviving
            self._prune_down(child, surviving, survivors, ordered)

    def _prune_child(
        self,
        child: TranslatedNode,
        child_matches: list[int],
        node_survivors: list[int],
        parent_ids: set[int],
    ) -> list[int]:
        """Forward-axis prune; mirrors the object matcher's dispatch."""
        planes = self._planes
        axis = child.axis
        if axis in ("child", "attribute"):
            return self._filter(
                child_matches,
                lambda entry_id: planes.parents[entry_id] != _NO_ID
                and planes.parents[entry_id] in parent_ids,
            )
        if axis in ("descendant", "attribute-descendant"):
            return self._filter(
                child_matches,
                lambda entry_id: self._has_surviving_ancestor(
                    entry_id, parent_ids
                ),
            )
        if axis == "self":
            return self._filter(child_matches, parent_ids.__contains__)
        if axis == "descendant-or-self":
            return self._filter(
                child_matches,
                lambda entry_id: entry_id in parent_ids
                or self._has_surviving_ancestor(entry_id, parent_ids),
            )
        if axis == "parent":
            parents = planes.parents
            image = {
                int(parents[survivor])
                for survivor in node_survivors
            }
            image.discard(_NO_ID)
            return self._filter(child_matches, image.__contains__)
        if axis in ("ancestor", "ancestor-or-self"):
            lows = planes.lows
            highs = planes.highs
            survivor_lows = sorted(
                lows[survivor] for survivor in node_survivors
            )
            or_self = axis == "ancestor-or-self"
            return self._filter(
                child_matches,
                lambda entry_id: (or_self and entry_id in parent_ids)
                or _low_inside(
                    survivor_lows, lows[entry_id], highs[entry_id]
                ),
            )
        if axis in ("following", "preceding"):
            bounds = self._order_bounds(node_survivors)
            if bounds is None:
                return []
            min_low, max_high = bounds
            if axis == "following":
                return sweep_following(
                    child_matches, planes.lows, planes.highs, min_low
                )
            return sweep_preceding(child_matches, planes.lows, max_high)
        if axis in ("following-sibling", "preceding-sibling"):
            bounds_by_parent = self._sibling_bounds(node_survivors)
            return sweep_siblings(
                child_matches,
                planes.lows,
                planes.highs,
                planes.parents,
                bounds_by_parent,
                following=axis == "following-sibling",
            )
        raise ValueError(f"unexpected pattern axis {axis!r}")

    def _order_bounds(
        self, entry_ids: list[int]
    ) -> "tuple[float, float] | None":
        """(min low, max high) over an id set — the order thresholds."""
        if not entry_ids:
            return None
        lows = self._planes.lows
        highs = self._planes.highs
        return (
            min(lows[entry_id] for entry_id in entry_ids),
            max(highs[entry_id] for entry_id in entry_ids),
        )

    def _sibling_bounds(
        self, entry_ids: list[int]
    ) -> dict[int, tuple[float, float]]:
        """Per-parent (min low, max high) over an id set."""
        planes = self._planes
        lows = planes.lows
        highs = planes.highs
        parents = planes.parents
        bounds: dict[int, tuple[float, float]] = {}
        for entry_id in entry_ids:
            parent = int(parents[entry_id])
            low = lows[entry_id]
            high = highs[entry_id]
            current = bounds.get(parent)
            if current is None:
                bounds[parent] = (low, high)
            else:
                bounds[parent] = (
                    min(current[0], low), max(current[1], high)
                )
        return bounds

    def _has_surviving_ancestor(
        self, entry_id: int, ancestor_ids: set[int]
    ) -> bool:
        parents = self._planes.parents
        current = parents[entry_id]
        while current != _NO_ID:
            if current in ancestor_ids:
                return True
            current = parents[current]
        return False

    # ------------------------------------------------------------------
    # Survivor materialization
    # ------------------------------------------------------------------
    def _materialize(self, entry_ids: list[int]) -> list[ColumnarEntry]:
        # Hot path: survivors can number in the thousands, so plane
        # accesses are hoisted to locals and everything lazy stays lazy.
        planes = self._planes
        block_ids = planes.block_ids
        hosted_ids = planes.hosted_ids
        node_for = self._node_for
        entry = ColumnarEntry
        materialized: list[ColumnarEntry] = []
        append = materialized.append
        for entry_id in entry_ids:
            hosted = hosted_ids[entry_id]
            block = block_ids[entry_id]
            append(
                entry(
                    planes,
                    entry_id,
                    None if block == _NO_ID else block,
                    node_for(hosted) if hosted != _NO_ID else None,
                )
            )
        return materialized


def _label(node: TranslatedNode) -> str:
    return "|".join(node.keys) if node.keys else "*"


# ----------------------------------------------------------------------
# Lazy structural index: a server booted straight off mmap planes
# ----------------------------------------------------------------------


class LazyStructuralIndex(StructuralIndex):
    """A :class:`StructuralIndex` whose object rows hydrate on demand.

    Constructed by the storage layer around mmap-loaded planes: the
    columnar query path (joins, group cutpoints, hosted-node lows) runs
    entirely off the planes, so a server can boot from a hosted save and
    answer queries in O(1) index heap.  The first access to ``entries``
    or ``table`` — incremental updates, object-path joins, aggregate
    pushdown — hydrates the full :class:`IndexEntry` forest from the
    planes, after which the instance behaves exactly like an eagerly
    loaded index (mutations included: the attached planes are dropped on
    :meth:`invalidate_caches` and rebuilt from the hydrated rows).
    """

    def __init__(
        self,
        planes: ColumnarPlanes,
        node_for: "Callable[[int], Node | None]",
    ) -> None:
        # Deliberately skip the dataclass __init__: ``entries``/``table``
        # are hydration properties on this class, not stored fields.
        self._planes = planes
        self._node_for = node_for
        self._hydrated_entries: "list[IndexEntry] | None" = None
        self._hydrated_table: "dict[str, list[IndexEntry]] | None" = None
        self._block_table = planes.block_table_dict()
        self._lows_by_key = {}
        self._lows_lock = threading.Lock()
        self._hydrate_lock = threading.Lock()
        self._columnar = planes

    # ------------------------------------------------------------------
    # Hydration
    # ------------------------------------------------------------------
    @property
    def hydrated(self) -> bool:
        """Have the object rows been materialized yet?"""
        return self._hydrated_entries is not None

    def _hydrate(self) -> "tuple[list[IndexEntry], dict]":
        if self._hydrated_entries is None:
            with self._hydrate_lock:
                if self._hydrated_entries is None:
                    entries, table = self._planes.hydrate_entries(
                        self._node_for
                    )
                    self._hydrated_table = table
                    self._hydrated_entries = entries
        assert self._hydrated_table is not None
        return self._hydrated_entries, self._hydrated_table

    @property
    def entries(self) -> list[IndexEntry]:
        return self._hydrate()[0]

    @entries.setter
    def entries(self, value: list[IndexEntry]) -> None:
        self._hydrate()
        self._hydrated_entries = value

    @property
    def table(self) -> dict[str, list[IndexEntry]]:
        return self._hydrate()[1]

    @table.setter
    def table(self, value: dict[str, list[IndexEntry]]) -> None:
        self._hydrate()
        self._hydrated_table = value

    @property
    def block_table(self) -> dict[int, Interval]:
        return self._block_table

    @block_table.setter
    def block_table(self, value: dict[int, Interval]) -> None:
        self._block_table = value

    # ------------------------------------------------------------------
    # Plane-native fast paths (no hydration)
    # ------------------------------------------------------------------
    def columnar(self) -> ColumnarPlanes:
        # Invariant: mutations hydrate first, so while un-hydrated the
        # load-time planes are still exact — a cache drop just
        # re-attaches them instead of materializing the object forest.
        if self._hydrated_entries is None:
            with self._lows_lock:
                if self._columnar is None:
                    counters.add("columnar_cache_misses")
                    self._columnar = self._planes
                else:
                    counters.add("columnar_cache_hits")
                return self._columnar
        return super().columnar()

    def sorted_lows(self, key: str) -> list[float]:
        if self._hydrated_entries is not None:
            return super().sorted_lows(key)
        cached = self._lows_by_key.get(key)
        if cached is not None:
            counters.add("interval_cache_hits")
            return cached
        with self._lows_lock:
            cached = self._lows_by_key.get(key)
            if cached is not None:
                counters.add("interval_cache_hits")
                return cached
            counters.add("interval_cache_misses")
            _, tag_lows = self._planes.tag_slice(key)
            lows = list(tag_lows)
            self._lows_by_key[key] = lows
            return lows

    def group_cutpoints(self, group_count: int) -> list[float]:
        if self._hydrated_entries is not None:
            return super().group_cutpoints(group_count)
        return self._planes.group_cutpoints(group_count)

    def hosted_node_lows(self) -> dict[int, float]:
        if self._hydrated_entries is not None:
            return super().hosted_node_lows()
        return self._planes.hosted_node_lows()
