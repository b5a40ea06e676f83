"""Axis-complete query workload: every XPath axis over real tag paths.

The §7.1 classes (:mod:`repro.workloads.queries`) only exercise the
downward fragment the paper's translator supports.  This generator
covers the full axis engine: for each of the thirteen axes it derives
query shapes from relations that actually hold in the document (sibling
tag pairs in document order, parent/child tag pairs, element tags with
attributes), so most queries have non-empty answers — an axis join that
returns nothing exercises very little.

Determinism matters twice over: the differential sweep replays the same
queries across cluster shapes, and the leakage tier
asserts trace determinism per query.  Everything is derived from the
document plus a seeded :class:`~repro.workloads.rng.WorkloadRandom`.
"""

from __future__ import annotations

from collections import defaultdict

from repro.workloads.rng import WorkloadRandom
from repro.xmldb.node import Document, Element

#: Axes the generator emits query shapes for — all thirteen.
ALL_AXES = (
    "child",
    "descendant",
    "descendant-or-self",
    "self",
    "attribute",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "following-sibling",
    "preceding-sibling",
    "following",
    "preceding",
    "namespace",
)


class AxisWorkload:
    """Deterministic per-axis query sets for a document."""

    def __init__(
        self, document: Document, seed: int = 7, per_axis: int = 3
    ) -> None:
        self._document = document
        self._rng = WorkloadRandom(
            seed.to_bytes(8, "big").rjust(16, b"\x00"), "axes"
        )
        self._per_axis = per_axis
        self._root_tag = document.root.tag
        tags: set[str] = set()
        child_pairs: set[tuple[str, str]] = set()
        sibling_pairs: set[tuple[str, str]] = set()
        attr_names: dict[str, set[str]] = defaultdict(set)
        for element in document.elements():
            tags.add(element.tag)
            child_tags = [
                child.tag
                for child in element.children
                if isinstance(child, Element)
            ]
            for tag in child_tags:
                child_pairs.add((element.tag, tag))
            # Ordered sibling tag pairs: (before, after) in document
            # order under one parent — the population for both sibling
            # axes (and a biased-to-nonempty one for following/preceding).
            for i, before in enumerate(child_tags):
                for after in child_tags[i + 1 :]:
                    if before != after:
                        sibling_pairs.add((before, after))
            for attribute in element.attributes:
                attr_names[element.tag].add(attribute.name)
        self._tags = sorted(tags)
        self._child_pairs = sorted(child_pairs)
        self._sibling_pairs = sorted(sibling_pairs)
        self._attr_names = {
            tag: sorted(names) for tag, names in sorted(attr_names.items())
        }

    # ------------------------------------------------------------------
    # Per-axis shapes
    # ------------------------------------------------------------------
    def by_axis(self) -> dict[str, list[str]]:
        """Query sets keyed by axis name, plus a ``positional`` set."""
        out: dict[str, list[str]] = {}
        for axis in ALL_AXES:
            out[axis] = self._emit(axis)
        out["positional"] = self._emit_positional()
        return out

    def queries(self) -> list[str]:
        """The flat deduplicated workload, generation order preserved."""
        seen: set[str] = set()
        flat: list[str] = []
        for batch in self.by_axis().values():
            for query in batch:
                if query not in seen:
                    seen.add(query)
                    flat.append(query)
        return flat

    def _emit(self, axis: str) -> list[str]:
        queries: list[str] = []
        for _ in range(self._per_axis):
            query = self._render(axis)
            if query is not None:
                queries.append(query)
        return queries

    def _render(self, axis: str) -> "str | None":
        rng = self._rng
        if axis == "child":
            parent, child = rng.choice(self._child_pairs)
            return f"//{parent}/{child}"
        if axis == "descendant":
            return f"//{rng.choice(self._tags)}"
        if axis == "descendant-or-self":
            _, tag = rng.choice(self._child_pairs)
            return f"//{tag}/descendant-or-self::{tag}"
        if axis == "self":
            tag = rng.choice(self._tags)
            return f"//{tag}/self::{tag}"
        if axis == "attribute":
            if not self._attr_names:
                return None
            tag = rng.choice(sorted(self._attr_names))
            name = rng.choice(self._attr_names[tag])
            return f"//{tag}/@{name}"
        if axis == "parent":
            parent, child = rng.choice(self._child_pairs)
            # Alternate the .. abbreviation with the explicit axis.
            if rng.randint(0, 1):
                return f"//{child}/.."
            return f"//{child}/parent::{parent}"
        if axis == "ancestor":
            parent, child = rng.choice(self._child_pairs)
            return f"//{child}/ancestor::{parent}"
        if axis == "ancestor-or-self":
            _, child = rng.choice(self._child_pairs)
            return f"//{child}/ancestor-or-self::{child}"
        if axis == "following-sibling":
            before, after = rng.choice(self._sibling_pairs)
            return f"//{before}/following-sibling::{after}"
        if axis == "preceding-sibling":
            before, after = rng.choice(self._sibling_pairs)
            return f"//{after}/preceding-sibling::{before}"
        if axis == "following":
            before, after = rng.choice(self._sibling_pairs)
            return f"//{before}/following::{after}"
        if axis == "preceding":
            before, after = rng.choice(self._sibling_pairs)
            return f"//{after}/preceding::{before}"
        if axis == "namespace":
            # The data model carries no namespace nodes: always-empty,
            # but the plan must stay typed (residual), never naive.
            return f"//{rng.choice(self._tags)}/namespace::*"
        raise ValueError(f"unknown axis {axis!r}")

    def _emit_positional(self) -> list[str]:
        """Positional predicates: ``[n]``, ``[last()]``, ``position()``."""
        queries: list[str] = []
        for _ in range(self._per_axis):
            parent, child = self._rng.choice(self._child_pairs)
            form = self._rng.randint(0, 2)
            if form == 0:
                queries.append(f"//{parent}/{child}[1]")
            elif form == 1:
                queries.append(f"//{parent}/{child}[last()]")
            else:
                queries.append(f"//{child}[position()={self._rng.randint(1, 2)}]")
        return queries
