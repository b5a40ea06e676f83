"""Per-query span tracing (the timing half of the observability layer).

A :class:`Span` is one timed region of the query pipeline — ``translate``,
``server``, ``decrypt`` — nested into a tree that mirrors the paper's
Fig. 9 "division of work": where a :class:`~repro.core.system.QueryTrace`
reports one scalar per stage, the span tree keeps *structure* (which
attempt, which stage of which layer) so "where did this query spend its
time" has an answer without editing benchmark code.

A :class:`Tracer` owns the ambient context: a thread-local stack of open
spans, so a deeper layer (the server's structural join, the channel, the
client's batch decrypt) attaches its spans under whatever the caller has
open without any plumbing through call signatures.

Design rules, load-bearing for the rest of the package:

* **Spans always time.**  A disabled tracer still hands out real,
  clock-backed spans — it only skips linking them into a tree — because
  ``QueryTrace``'s timing fields are *derived from* span durations.
  Tracing on/off must never change the measured numbers.
* **Modelled time is first-class.**  Wire transfer and retry backoff are
  modelled, not slept (see :mod:`repro.netsim.channel`); their spans get
  :meth:`Span.set_duration` so span totals still reconcile with the
  trace's modelled fields.
* **Mutation is GIL-atomic.**  Child lists and annotation dicts are
  mutated with single list/dict operations only, the same concurrency
  discipline the cache layers use; spans carry no locks.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional


class Span:
    """One timed, annotated region of work, with nested children."""

    __slots__ = (
        "name",
        "parent",
        "children",
        "annotations",
        "started_s",
        "duration_s",
    )

    def __init__(
        self,
        name: str,
        parent: "Span | None" = None,
        annotations: "dict[str, Any] | None" = None,
    ) -> None:
        self.name = name
        self.parent = parent
        self.children: list[Span] = []
        self.annotations: dict[str, Any] = annotations or {}
        self.started_s = time.perf_counter()
        #: None while open; set by :meth:`finish` or :meth:`set_duration`.
        self.duration_s: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> float:
        """Close the span (idempotent); returns its duration in seconds."""
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self.started_s
        return self.duration_s

    def set_duration(self, seconds: float) -> None:
        """Override the measured duration with a *modelled* one.

        Used for stages whose cost is accounted rather than slept (wire
        transfer, retry backoff), so span totals reconcile with the
        modelled fields of :class:`~repro.core.system.QueryTrace`.
        """
        self.duration_s = seconds
        self.annotations["modelled"] = True

    def elapsed_s(self) -> float:
        """Wall time since the span started (duration once finished)."""
        if self.duration_s is not None:
            return self.duration_s
        return time.perf_counter() - self.started_s

    # ------------------------------------------------------------------
    # Annotations
    # ------------------------------------------------------------------
    def annotate(self, **values: Any) -> None:
        self.annotations.update(values)

    def add_event(self, key: str, value: Any) -> None:
        """Append ``value`` to the list annotation ``key`` (e.g. faults)."""
        self.annotations.setdefault(key, []).append(value)

    # ------------------------------------------------------------------
    # Aggregation / traversal
    # ------------------------------------------------------------------
    def iter(self) -> Iterator["Span"]:
        """Depth-first traversal of the subtree, self first."""
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def total(self, name: str) -> float:
        """Sum of durations of every span named ``name`` in the subtree.

        This is the reconciliation primitive: ``root.total("server")``
        equals ``QueryTrace.server_s`` exactly, because both are written
        from the same span measurements.  Spans still open count as 0.
        """
        return sum(
            span.duration_s or 0.0
            for span in self.iter()
            if span.name == name
        )

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in depth-first order, if any."""
        for span in self.iter():
            if span.name == name:
                return span
        return None

    # ------------------------------------------------------------------
    # Rendering / export
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """JSON-able form of the subtree."""
        out: dict[str, Any] = {
            "name": self.name,
            "duration_s": self.duration_s,
        }
        if self.annotations:
            out["annotations"] = dict(self.annotations)
        if self.children:
            out["children"] = [child.as_dict() for child in self.children]
        return out

    def render(self, indent: str = "") -> str:
        """Human-readable nested tree, repeated siblings grouped by name.

        Grouping keeps chunked streams readable: five sibling ``server``
        spans print as one ``server ×5`` line carrying their summed
        duration (the same sum :meth:`total` reports).
        """
        lines = [indent + self._describe()]
        child_indent = indent + "  "
        index = 0
        children = self.children
        while index < len(children):
            run = [children[index]]
            while (
                index + len(run) < len(children)
                and children[index + len(run)].name == run[0].name
                and not children[index + len(run)].children
                and not run[-1].children
            ):
                run.append(children[index + len(run)])
            if len(run) > 1:
                total = sum(span.duration_s or 0.0 for span in run)
                annotated = _render_annotations(
                    _merge_annotations(run)
                )
                lines.append(
                    f"{child_indent}{run[0].name} ×{len(run)}"
                    f"  {total * 1000:.3f}ms{annotated}"
                )
            else:
                lines.append(run[0].render(child_indent))
            index += len(run)
        return "\n".join(lines)

    def _describe(self) -> str:
        duration = self.duration_s
        timing = (
            f"{duration * 1000:.3f}ms" if duration is not None else "open"
        )
        return f"{self.name}  {timing}{_render_annotations(self.annotations)}"

    def __repr__(self) -> str:  # keep QueryTrace reprs short
        return f"Span({self.name!r}, duration_s={self.duration_s})"


def _merge_annotations(spans: list[Span]) -> dict[str, Any]:
    merged: dict[str, Any] = {}
    for span in spans:
        for key, value in span.annotations.items():
            if key == "modelled":
                merged[key] = True
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                merged[key] = merged.get(key, 0) + value
            elif isinstance(value, list):
                merged.setdefault(key, []).extend(value)
            else:
                merged[key] = value
    return merged


def _render_annotations(annotations: dict[str, Any]) -> str:
    if not annotations:
        return ""
    parts = []
    for key in sorted(annotations):
        value = annotations[key]
        if value is True:
            parts.append(key)
        elif isinstance(value, list):
            parts.append(f"{key}={','.join(str(v) for v in value)}")
        else:
            parts.append(f"{key}={value}")
    return "  [" + " ".join(parts) + "]"


class Tracer:
    """Thread-local span context: who is currently being timed, per thread.

    ``enabled=False`` is the overhead escape hatch: spans are still
    created and timed (the trace fields depend on them) but never linked
    into a tree, annotated, or made ambient — the steady-state cost is
    one small object per stage.  The obs overhead benchmark gates the
    *enabled* path against this baseline.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Ambient context
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def begin(self, name: str, **annotations: Any) -> Span:
        """Open a span *without* making it ambient (see :meth:`activate`).

        The query pipeline uses this for the root ``query`` span, whose
        lifetime spans multiple method calls rather than one lexical
        block.
        """
        if not self.enabled:
            return Span(name)
        parent = self.current()
        span = Span(name, parent, dict(annotations) if annotations else None)
        if parent is not None:
            parent.children.append(span)
        return span

    @contextmanager
    def span(self, name: str, **annotations: Any):
        """Open a child of the current span for the duration of the block."""
        span = self.begin(name, **annotations)
        if not self.enabled:
            try:
                yield span
            finally:
                span.finish()
            return
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span.finish()
            if stack and stack[-1] is span:
                stack.pop()

    @contextmanager
    def activate(self, span: Span | None):
        """Make ``span`` the ambient parent without timing anything.

        Used to keep a long-lived span (the root query span) ambient
        across the method calls it covers.
        """
        if not self.enabled or span is None:
            yield
            return
        stack = self._stack()
        stack.append(span)
        try:
            yield
        finally:
            if stack and stack[-1] is span:
                stack.pop()
