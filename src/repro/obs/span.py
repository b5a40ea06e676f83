"""Per-query span tracing and the one accounting record.

A :class:`Span` is one timed region of the query pipeline — ``translate``,
``server``, ``decrypt`` — nested into a tree that mirrors the paper's
Fig. 9 "division of work": where a :class:`~repro.core.system.QueryTrace`
reports one scalar per stage, the span tree keeps *structure* (which
attempt, which stage of which layer) so "where did this query spend its
time" has an answer without editing benchmark code.

The ambient context is module state: one stack of open spans per thread,
so any layer — the crypto kernels, the DSI, the fault channel — attaches
its spans and counts under whatever the caller has open without a handle
on a system.

Design rules, load-bearing for the rest of the package:

* **A count lands on the open span.**  :func:`count` adds to the
  innermost open span on the calling thread.  A span folds its counts
  into its parent when it finishes; a span with no parent folds them into
  the one process total under one lock, exactly once.  A count made with
  no span open goes straight to the process total.  So the process total
  is the sum over finished roots plus the unspanned counts, and a root's
  :attr:`Span.counts` is what its own request did.
* **Modelled time is first-class.**  Wire transfer and retry backoff are
  modelled, not slept (see :mod:`repro.netsim.channel`); their spans get
  :meth:`Span.set_duration`.
* **Mutation is GIL-atomic.**  A span is opened, counted on and finished
  by the thread whose stack holds it; only the process total is shared,
  and it has the lock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

#: The Fig. 9 stages a query's wall time is the sum of, in pipeline
#: order; ``backoff`` is the modelled wait before a retry.
STAGES = ("translate", "server", "transfer", "decrypt", "postprocess", "backoff")


class Span:
    """One timed, annotated region of work, with nested children.

    As a context manager it is the ambient span for the block and is
    finished when the block exits (see :func:`span`).
    """

    __slots__ = (
        "name",
        "parent",
        "children",
        "annotations",
        "started_s",
        "duration_s",
        "counts",
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
        #: Counter name → amount counted in this subtree (children's
        #: counts arrive when they finish).
        self.counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        _ambient.stack.append(self)
        return self

    def __exit__(self, *_exc: object) -> None:
        _ambient.stack.pop()
        self.finish()

    def finish(self) -> float:
        """Close the span (idempotent); returns its duration in seconds.

        The first call folds :attr:`counts` into the parent, or into the
        process total when there is none.
        """
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self.started_s
            counts = self.counts
            if counts:
                parent = self.parent
                if parent is None:
                    with _TOTAL_LOCK:
                        _fold(counts, _TOTAL)
                else:
                    _fold(counts, parent.counts)
        return self.duration_s

    def set_duration(self, seconds: float) -> None:
        """Override the measured duration with a *modelled* one.

        Used for stages whose cost is accounted rather than slept (wire
        transfer, retry backoff).
        """
        self.duration_s = seconds
        self.annotations["modelled"] = True

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
    def iter(self) -> list["Span"]:
        """The subtree depth-first, self first."""
        spans = [self]
        for child in self.children:
            spans += child.iter()
        return spans

    def total(self, *names: str) -> float:
        """Sum of durations of every span in the subtree named one of
        ``names``.

        ``QueryTrace``'s stage timings are this, over the query's root.
        Spans still open count as 0.
        """
        spans = [self]
        for span in spans:  # breadth-first: the list grows as it is read
            spans += span.children
        return sum(
            span.duration_s or 0.0 for span in spans if span.name in names
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
        if self.counts:
            out["counts"] = dict(self.counts)
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


def _fold(counts: dict[str, int], into: dict[str, int]) -> None:
    for name, amount in counts.items():
        into[name] = into.get(name, 0) + amount


class _Ambient(threading.local):
    def __init__(self) -> None:
        self.stack: list[Span] = []


#: This thread's open spans, innermost last.
_ambient = _Ambient()
#: The process total: counts of finished roots plus unspanned counts.
_TOTAL: dict[str, int] = {}
_TOTAL_LOCK = threading.Lock()


def count(name: str, amount: int = 1) -> None:
    """Add ``amount`` to counter ``name`` on the innermost open span.

    With no span open on this thread, straight to the process total.
    Names are declared in :data:`repro.obs.metrics.COUNTERS`.
    """
    stack = _ambient.stack
    if stack:
        counts = stack[-1].counts
        counts[name] = counts.get(name, 0) + amount
    else:
        with _TOTAL_LOCK:
            _TOTAL[name] = _TOTAL.get(name, 0) + amount


def totals() -> dict[str, int]:
    """A consistent copy of the process total (counted names only)."""
    with _TOTAL_LOCK:
        return dict(_TOTAL)


def current() -> Span | None:
    """The innermost open span on this thread, if any."""
    stack = _ambient.stack
    return stack[-1] if stack else None


def span(name: str, **annotations: Any) -> Span:
    """Open a child of the current span (a root when none is open).

    ``with span(name):`` makes it ambient for the block and finishes it
    on exit.  Opened without ``with`` it is not ambient: the query
    pipeline does that for the root ``query`` span, whose lifetime
    covers several method calls (see :func:`activate`), and for modelled
    spans that are given a duration instead of a finish.
    """
    stack = _ambient.stack
    parent = stack[-1] if stack else None
    opened = Span(name, parent, annotations or None)
    if parent is not None:
        parent.children.append(opened)
    return opened


@contextmanager
def activate(opened: Span | None) -> Iterator[None]:
    """Make ``opened`` the ambient parent without timing anything.

    Keeps a long-lived span (the root query span) ambient across the
    method calls it covers; ``None`` changes nothing.
    """
    if opened is None:
        yield
        return
    stack = _ambient.stack
    stack.append(opened)
    try:
        yield
    finally:
        stack.pop()
