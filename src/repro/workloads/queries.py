"""Query workload generation: the Qs / Qm / Ql classes of §7.1.

"We created three kinds of queries for each encrypted document: (1) Qs,
the queries output the children node of the root of the document, (2) Qm,
the queries output the nodes on the [h/2] level, where h is the depth of
the document tree, and (3) Ql, the queries output the leaf nodes.  For
each category of queries, we create 10 queries and report the average."

The generator derives the tag-path population of a document, buckets paths
by output depth, and emits deterministic query sets for each class.  A
configurable fraction of queries carries a value predicate drawn from real
values in the document, so the value-index path is exercised too.
"""

from __future__ import annotations

from collections import defaultdict

from repro.workloads.rng import WorkloadRandom
from repro.xmldb.node import Attribute, Document, Element
from repro.xmldb.stats import depth as document_depth


def _tag_paths(document: Document) -> dict[int, set[tuple[str, ...]]]:
    """All root-to-node tag paths, bucketed by depth (root = depth 0)."""
    by_depth: dict[int, set[tuple[str, ...]]] = defaultdict(set)
    for element in document.elements():
        path = tuple(
            ancestor.tag
            for ancestor in reversed(list(element.ancestors()))
        ) + (element.tag,)
        by_depth[len(path) - 1].add(path)
    return by_depth


def _leaf_paths(document: Document) -> set[tuple[str, ...]]:
    paths: set[tuple[str, ...]] = set()
    for leaf in document.leaves():
        if isinstance(leaf, Attribute):
            owner = leaf.parent
            assert isinstance(owner, Element)
            base = tuple(
                ancestor.tag
                for ancestor in reversed(list(owner.ancestors()))
            ) + (owner.tag, f"@{leaf.name}")
        else:
            base = tuple(
                ancestor.tag
                for ancestor in reversed(list(leaf.ancestors()))
            ) + (leaf.tag,)
        paths.add(base)
    return paths


def _sample_value(
    document: Document, field: str, rng: WorkloadRandom
) -> str | None:
    """A real value of a leaf field, for predicate queries."""
    values = []
    for leaf in document.leaves():
        name = (
            f"@{leaf.name}" if isinstance(leaf, Attribute) else getattr(leaf, "tag", None)
        )
        if name == field:
            value = leaf.text_value()
            if value is not None:
                values.append(value)
    if not values:
        return None
    return rng.choice(sorted(set(values)))


def _path_to_query(
    path: tuple[str, ...], rng: WorkloadRandom
) -> str:
    """Render a tag path as an XPath query, mixing / and // separators."""
    if len(path) == 1:
        return f"/{path[0]}"
    # Randomly compress a prefix with '//' about half the time.
    if len(path) > 2 and rng.randint(0, 1) == 1:
        cut = rng.randint(1, len(path) - 1)
        tail = "/".join(path[cut:])
        return f"//{tail}"
    return "/" + "/".join(path)


class QueryWorkload:
    """Deterministic Qs / Qm / Ql query sets for a document."""

    def __init__(
        self,
        document: Document,
        seed: int = 7,
        per_class: int = 10,
        predicate_fraction: float = 0.3,
    ) -> None:
        self._document = document
        self._rng = WorkloadRandom(
            seed.to_bytes(8, "big").rjust(16, b"\x00"), "queries"
        )
        self._per_class = per_class
        self._predicate_fraction = predicate_fraction
        self._by_depth = _tag_paths(document)
        self._leaves = sorted(_leaf_paths(document))
        self._height = document_depth(document)

    def qs(self) -> list[str]:
        """Queries whose output is a child of the root."""
        paths = sorted(self._by_depth.get(1, set()))
        return self._emit(paths)

    def qm(self) -> list[str]:
        """Queries whose output sits at the ⌈h/2⌉ level."""
        target = max(1, self._height // 2)
        paths = sorted(self._by_depth.get(target, set()))
        if not paths:  # very shallow documents
            paths = sorted(self._by_depth.get(1, set()))
        return self._emit(paths)

    def ql(self) -> list[str]:
        """Queries whose output is a leaf (value-bearing) node."""
        return self._emit(self._leaves, allow_predicates=True)

    def by_class(self) -> dict[str, list[str]]:
        return {"Qs": self.qs(), "Qm": self.qm(), "Ql": self.ql()}

    def _emit(
        self,
        paths: list[tuple[str, ...]],
        allow_predicates: bool = False,
    ) -> list[str]:
        if not paths:
            return []
        queries = []
        for _ in range(self._per_class):
            path = self._rng.choice(paths)
            query = self._render(path, allow_predicates)
            queries.append(query)
        return queries

    def _render(
        self, path: tuple[str, ...], allow_predicates: bool
    ) -> str:
        attribute_tail = path[-1].startswith("@")
        render_path = path
        query = _path_to_query(render_path, self._rng)
        if (
            allow_predicates
            and not attribute_tail
            and self._rng.uniform() < self._predicate_fraction
        ):
            value = _sample_value(self._document, path[-1], self._rng)
            if value is not None:
                # Constrain the output leaf's own value: //a/b[.='v'].
                escaped = value.replace("'", "")
                query += f"[.='{escaped}']"
        return query
