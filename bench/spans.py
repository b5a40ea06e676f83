"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around each call into a
layer of the program; nothing inside ``src/`` is instrumented.  A span is
(name, start, end, parent, op): ``parent`` is the span that was open on the
same thread when this one started, ``op`` the id of the operation it
belongs to.  A layer's **self time** is its span's duration minus the time
its child spans cover, so the self times under one op span add up to that
op's wall time exactly — the remainder is the op span's own self time,
reported as ``unaccounted``.

Like every timing in this benchmark, span times are reported
speed-normalised (see ``measure.reference_kernel``): :meth:`set_scales`
gives each op the factor measured just before it ran, and everything
derived from the spans — self times, stage totals, the trace file —
applies it.  Spans outside any op (the update engine on a server thread)
take the run's median factor.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Iterator

OP = "op"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "kind")

    def __init__(
        self, span_id: int, name: str, parent: "Span | None", op: "int | None",
        kind: str,
    ) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op if op is not None else (parent.op if parent else None)
        #: "read"/"write" on op spans, inherited below them.
        self.kind = kind or (parent.kind if parent else "")
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any number of threads; written out at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._open = threading.local()
        self._scales: dict[int, float] = {}
        self._default_scale = 1.0

    def set_scales(self, scales: dict[int, float], default: float) -> None:
        """Op id → speed-normalisation factor; ``default`` for the rest."""
        self._scales = scales
        self._default_scale = default

    def scale(self, span: Span) -> float:
        return self._scales.get(span.op, self._default_scale)

    def duration(self, span: Span) -> float:
        """Speed-normalised duration of one span."""
        return span.duration * self.scale(span)

    @contextmanager
    def span(
        self, name: str, op: "int | None" = None, kind: str = ""
    ) -> Iterator[Span]:
        parent = getattr(self._open, "top", None)
        span = Span(next(self._ids), name, parent, op, kind)
        self._open.top = span
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.top = parent
            self.spans.append(span)  # list.append is atomic under the GIL

    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the time covered by its children."""
        own = {span.id: self.duration(span) for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent.id] -= self.duration(span)
        return own

    def stage_totals(self, kind: str) -> tuple[dict[str, float], float, int]:
        """Self time per span name under op spans of one kind.

        Returns ``(totals, wall, ops)``: summed self seconds per stage
        name (the op spans' own self time under ``"unaccounted"``), the
        summed op wall, and the number of op spans.
        """
        own = self.self_times()
        totals: dict[str, float] = {}
        wall = 0.0
        ops = 0
        for span in self.spans:
            if span.kind != kind or span.op is None:
                continue
            if span.name == OP:
                wall += self.duration(span)
                ops += 1
                name = "unaccounted"
            else:
                name = span.name
            totals[name] = totals.get(name, 0.0) + own[span.id]
        return totals, wall, ops

    def durations(self, name: str) -> list[float]:
        return [self.duration(s) for s in self.spans if s.name == name]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent.id if span.parent else None,
                            "op": span.op,
                            "scale": self.scale(span),
                        }
                    )
                    + "\n"
                )


def stage_table(recorder: SpanRecorder, kind: str, order: list[str]) -> str:
    """The Fig. 9 table: mean self time per op and share of op wall."""
    totals, wall, ops = recorder.stage_totals(kind)
    if not ops:
        return f"(no {kind} ops)"
    names = [n for n in order if n in totals]
    names += sorted(n for n in totals if n not in order and n != "unaccounted")
    names.append("unaccounted")
    lines = [f"{'stage':28s} {'ms/op':>10s} {'share':>8s}"]
    for name in names:
        seconds = totals.get(name, 0.0)
        lines.append(
            f"{name:28s} {seconds / ops * 1000:10.3f} {seconds / wall:8.1%}"
        )
    lines.append(f"{'op wall':28s} {wall / ops * 1000:10.3f} {1:8.1%}  n={ops}")
    return "\n".join(lines)
