"""Ring-buffer slow-query log: the top-N slowest queries, with context.

Keeps the N worst queries *by total wall time* seen since startup (or
the last reset): each entry is the query's own
:class:`~repro.core.system.QueryTrace`, whose root span holds its stage
breakdown and the fault/retry story from the netsim layer — enough to
answer "why was this one slow" (a residual plan? three retries across a
lossy channel? just a big candidate set?) without re-running anything.
Nothing is copied out of the trace: the exports read it.

Bounded: a min-heap of size ``capacity`` evicts the fastest entry when
a slower query arrives, so memory stays O(capacity) under any traffic.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import TYPE_CHECKING, Any

from repro.obs.span import STAGES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.system import QueryTrace


class SlowLogEntry:
    """One logged query: its :class:`QueryTrace`, read when exported."""

    __slots__ = ("trace",)

    def __init__(self, trace: "QueryTrace") -> None:
        self.trace = trace

    def stages(self) -> dict[str, float]:
        """Pipeline stage → seconds (the modelled backoff is apart)."""
        root = self.trace.span
        return {name: root.total(name) for name in STAGES if name != "backoff"}

    def as_dict(self) -> dict[str, Any]:
        trace = self.trace
        return {
            "query": trace.query,
            "total_s": trace.total_s,
            "stages": self.stages(),
            "attempts": trace.attempts,
            "retries": trace.retries,
            "integrity_failures": trace.integrity_failures,
            "drops": trace.drops,
            "backoff_s": trace.backoff_s,
            "plan": trace.plan,
            "fallback_reason": trace.fallback_reason,
            "failed": trace.failed,
            "answer_count": trace.answer_count,
            "span": trace.span.as_dict(),
        }

    def render(self) -> str:
        trace = self.trace
        flags = []
        if trace.failed:
            flags.append("FAILED")
        if trace.plan == "naive":
            flags.append("naive")
        elif trace.plan != "axis":
            flags.append(f"plan={trace.plan}")
        if trace.fallback_reason:
            flags.append(f"reason={trace.fallback_reason!r}")
        if trace.retries:
            flags.append(f"retries={trace.retries}")
        if trace.integrity_failures:
            flags.append(f"integrity_failures={trace.integrity_failures}")
        if trace.drops:
            flags.append(f"drops={trace.drops}")
        if trace.backoff_s:
            flags.append(f"backoff={trace.backoff_s * 1000:.1f}ms")
        flag_text = f"  [{' '.join(flags)}]" if flags else ""
        stage_text = " ".join(
            f"{name}={seconds * 1000:.2f}ms"
            for name, seconds in self.stages().items()
        )
        return (
            f"{trace.total_s * 1000:8.2f}ms  {trace.query}{flag_text}\n"
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

    def record(self, trace: "QueryTrace") -> None:
        """Keep ``trace`` if it is among the slowest seen."""
        total_s = trace.total_s
        with self._lock:
            full = len(self._heap) >= self.capacity
            if full and self._heap[0][0] >= total_s:
                return
            sequence = next(self._sequence)
            item = (total_s, sequence, SlowLogEntry(trace))
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
