"""Ring-buffer slow-query log: the top-N slowest queries, with context.

Keeps the N worst queries *by total wall time* seen since startup (or
the last reset), each with its stage breakdown and the fault/retry
story from the netsim layer — enough to answer "why was this one slow"
(a residual plan? three retries across a lossy channel? just a big
candidate set?) without re-running anything.

Bounded: a min-heap of size ``capacity`` evicts the fastest entry when
a slower query arrives, so memory stays O(capacity) under any traffic.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import TYPE_CHECKING, Any

from repro.obs.span import Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.system import QueryTrace


class SlowLogEntry:
    """One logged query: scalar trace view + span tree + fault story."""

    __slots__ = (
        "query",
        "total_s",
        "stages",
        "attempts",
        "retries",
        "integrity_failures",
        "drops",
        "backoff_s",
        "naive",
        "plan",
        "fallback_reason",
        "failed",
        "answer_count",
        "span",
        "sequence",
    )

    def __init__(
        self, trace: "QueryTrace", failed: bool, sequence: int
    ) -> None:
        self.query = trace.query
        self.total_s = trace.total_s
        #: Span name → summed duration, in one walk of the root.
        seconds: dict[str, float] = {}
        for span in trace.span.iter():
            seconds[span.name] = (
                seconds.get(span.name, 0.0) + (span.duration_s or 0.0)
            )
        self.stages = {
            name: seconds.get(name, 0.0)
            for name in ("translate", "server", "transfer", "decrypt",
                         "postprocess")
        }
        self.attempts = trace.attempts
        self.retries = trace.retries
        self.integrity_failures = trace.integrity_failures
        self.drops = trace.drops
        self.backoff_s = seconds.get("backoff", 0.0)
        self.naive = trace.naive
        self.plan = trace.plan
        self.fallback_reason = trace.fallback_reason
        self.failed = failed
        self.answer_count = trace.answer_count
        self.span: Span = trace.span
        self.sequence = sequence

    def as_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "total_s": self.total_s,
            "stages": dict(self.stages),
            "attempts": self.attempts,
            "retries": self.retries,
            "integrity_failures": self.integrity_failures,
            "drops": self.drops,
            "backoff_s": self.backoff_s,
            "naive": self.naive,
            "plan": self.plan,
            "fallback_reason": self.fallback_reason,
            "failed": self.failed,
            "answer_count": self.answer_count,
            "span": self.span.as_dict(),
        }

    def render(self) -> str:
        flags = []
        if self.failed:
            flags.append("FAILED")
        if self.naive:
            flags.append("naive")
        if self.plan not in ("axis", "naive"):
            flags.append(f"plan={self.plan}")
        if self.fallback_reason:
            flags.append(f"reason={self.fallback_reason!r}")
        if self.retries:
            flags.append(f"retries={self.retries}")
        if self.integrity_failures:
            flags.append(f"integrity_failures={self.integrity_failures}")
        if self.drops:
            flags.append(f"drops={self.drops}")
        if self.backoff_s:
            flags.append(f"backoff={self.backoff_s * 1000:.1f}ms")
        flag_text = f"  [{' '.join(flags)}]" if flags else ""
        stage_text = " ".join(
            f"{name}={seconds * 1000:.2f}ms"
            for name, seconds in self.stages.items()
        )
        return (
            f"{self.total_s * 1000:8.2f}ms  {self.query}{flag_text}\n"
            f"          {stage_text}"
        )


class SlowQueryLog:
    """Thread-safe bounded top-N log keyed on query wall time."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("slow-query log capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        # Min-heap of (total_s, sequence, entry): the root is the
        # *fastest* logged query, i.e. the eviction candidate.  The
        # sequence number breaks ties so entries never compare.
        self._heap: list[tuple[float, int, SlowLogEntry]] = []
        self._sequence = itertools.count()

    def record(self, trace: "QueryTrace", failed: bool = False) -> None:
        """Keep ``trace`` if it is among the slowest seen (its entry is
        built only then)."""
        total_s = trace.total_s
        with self._lock:
            full = len(self._heap) >= self.capacity
            if full and self._heap[0][0] >= total_s:
                return
            sequence = next(self._sequence)
            item = (total_s, sequence, SlowLogEntry(trace, failed, sequence))
            if full:
                heapq.heapreplace(self._heap, item)
            else:
                heapq.heappush(self._heap, item)

    def entries(self) -> list[SlowLogEntry]:
        """Logged queries, slowest first (ties: most recent first)."""
        with self._lock:
            items = list(self._heap)
        return [
            entry
            for _, _, entry in sorted(
                items, key=lambda item: (-item[0], -item[1])
            )
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()

    def as_dicts(self) -> list[dict[str, Any]]:
        return [entry.as_dict() for entry in self.entries()]

    def render(self) -> str:
        entries = self.entries()
        if not entries:
            return "slow-query log: empty"
        header = (
            f"slow-query log — {len(entries)} slowest "
            f"(capacity {self.capacity})"
        )
        return "\n".join([header] + [entry.render() for entry in entries])
