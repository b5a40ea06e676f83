"""Plaintext correctness oracle.

A second, never-encrypted copy of the workload's document, updated in
lockstep with every write the benchmark issues (the pattern of
``tests/test_property_updates.py``).  A read is correct when its answer,
in canonical form, equals what the plaintext evaluator returns on the
oracle in the state the read ran in.

Checking never lands in a latency sample: the timed loop only records a
digest of the canonical form of the first answer per (query, state), and
:meth:`Oracle.check` replays the writes and evaluates afterwards.  A digest,
not the answer, so that what the harness remembers does not show up in the
workload's ``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from repro.core.client import canonical_node
from repro.xmldb.node import Document, Element, Text
from repro.xpath.evaluator import evaluate


def _may_see(xpath: str, canonical: list[str], tags: set[str]) -> bool:
    """Could a change to elements of ``tags`` alter this cached answer?

    Conservative: a path with a wildcard or a parent step can select by
    position, so it always may.  Otherwise the change shows only if the
    path names one of the tags (selection) or an answer subtree holds one
    (content) — a changed node's own tag, or for an insert its parent's,
    is in the serialization of every subtree around it.
    """
    if "*" in xpath or ".." in xpath or "node()" in xpath:
        return True
    return any(
        re.search(rf"(?<![\w-]){re.escape(tag)}(?![\w-])", xpath)
        or any(f"<{tag}" in item for item in canonical)
        for tag in tags
    )


def canonical_answer(nodes) -> list[str]:
    """Order-insensitive canonical form of a list of answer nodes."""
    return sorted(canonical_node(node) for node in nodes)


def digest(canonical: list[str]) -> bytes:
    """Fixed-size stand-in for a canonical answer."""
    hasher = hashlib.sha256()
    for item in canonical:
        hasher.update(item.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.digest()


@dataclass
class Observation:
    """The first answer seen for one query while ``lo..hi`` writes were in.

    ``lo`` is the number of writes completed before the read started and
    ``hi`` the number started by the time it returned; they differ only
    when another connection's write overlapped the read, in which case
    any state in between is a correct one to have answered from.
    """

    xpath: str
    lo: int
    hi: int
    #: :func:`digest` of the answer's canonical form.
    answer: bytes
    #: Id of the read in the run, for failure reports.
    op_id: int


@dataclass
class Oracle:
    """The plaintext document plus the writes applied to it so far."""

    document: Document
    writes_applied: int = 0
    _expected: dict[str, list[str]] = field(default_factory=dict)

    def expected(self, xpath: str) -> list[str]:
        """Canonical plaintext answer in the current state (memoized)."""
        cached = self._expected.get(xpath)
        if cached is None:
            cached = canonical_answer(evaluate(self.document, xpath))
            self._expected[xpath] = cached
        return cached

    def apply(self, op) -> None:
        """Apply one write op (see :class:`workloads.Op`) to the plaintext."""
        targets = evaluate(self.document, op.xpath)
        if len(targets) != 1:
            raise AssertionError(
                f"workload bug: write target {op.xpath!r} matched "
                f"{len(targets)} nodes on the oracle"
            )
        target = targets[0]
        touched = {target.tag, op.tag} if op.kind == "insert" else {
            node.tag for node in target.iter() if isinstance(node, Element)
        }
        if op.kind == "insert":
            leaf = Element(op.tag)
            leaf.append(Text(op.value))
            target.append(leaf)
            self.document.renumber()
        elif op.kind == "update":
            target.children[0].value = op.value
        elif op.kind == "delete":
            target.detach()
            self.document.renumber()
        else:
            raise ValueError(f"not a write op: {op.kind!r}")
        self.writes_applied += 1
        # Re-evaluating every read after every write would cost more than
        # the timed loop; keep the answers the write cannot have changed.
        self._expected = {
            xpath: canonical
            for xpath, canonical in self._expected.items()
            if not _may_see(xpath, canonical, touched)
        }

    def check(self, writes: list, observations: list[Observation]) -> list[str]:
        """Replay ``writes`` and check every observation; returns failures.

        ``writes`` are the write ops in commit order, continuing from
        :attr:`writes_applied`.  Each failure is a one-line description.
        """
        by_state: dict[int, list[Observation]] = {}
        for observation in observations:
            for state in range(observation.lo, observation.hi + 1):
                by_state.setdefault(state, []).append(observation)
        satisfied: set[int] = set()
        first_state = self.writes_applied
        for state in range(first_state, first_state + len(writes) + 1):
            if state > first_state:
                self.apply(writes[state - first_state - 1])
            for observation in by_state.get(state, ()):
                if observation.answer == digest(self.expected(observation.xpath)):
                    satisfied.add(id(observation))
        return [
            f"op {o.op_id}: {o.xpath!r} after {o.lo}..{o.hi} writes: "
            f"answer differs from the plaintext oracle"
            for o in observations
            if id(o) not in satisfied
        ]
