"""Prometheus text exposition format 0.0.4: a lint and a parse-back.

Test-side: the exporter (:meth:`repro.obs.metrics.MetricsRegistry
.to_prometheus`) lives in ``src/``; what checks its output lives here,
beside the tests that run it (``test_obs`` on a registry,
``test_cli`` on ``repro stats --format prometheus``).
"""

from __future__ import annotations

import re

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'  # optional labels
    r" -?[0-9.eE+-]+(Inf|NaN)?$"  # value (incl. 7.9e-05-style floats)
)


def lint_prometheus(text: str) -> list[str]:
    """Return format violations ([] when the exposition is clean).

    Checks the format rules: one metric per line, no blank lines,
    every sample preceded by ``# HELP`` and ``# TYPE`` headers for its
    family, headers in HELP-then-TYPE order, and samples matching the
    exposition-format grammar.
    """
    problems: list[str] = []
    helped: set[str] = set()
    typed: set[str] = set()
    if not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            problems.append(f"line {number}: blank line")
            continue
        if line != line.strip():
            problems.append(f"line {number}: leading/trailing whitespace")
            line = line.strip()
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3].strip():
                problems.append(f"line {number}: HELP without docstring")
            else:
                helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or parts[3] not in (
                "counter",
                "gauge",
                "histogram",
                "summary",
                "untyped",
            ):
                problems.append(f"line {number}: bad TYPE line")
                continue
            name = parts[2]
            if name not in helped:
                problems.append(f"line {number}: TYPE {name} before HELP")
            typed.add(name)
            continue
        if line.startswith("#"):
            problems.append(f"line {number}: unknown comment {line!r}")
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {number}: malformed sample {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        family = _family_of(name)
        if family not in typed:
            problems.append(
                f"line {number}: sample {name} without # TYPE header"
            )
    return problems


def _family_of(sample_name: str) -> str:
    """Map a sample name to its metric family name.

    Histogram samples ``x_bucket``/``x_sum``/``x_count`` belong to family
    ``x``; everything else (including ``*_total`` counters, which are
    exposed under their full name here) is its own family.
    """
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def parse_prometheus(text: str) -> dict[str, float]:
    """Sample name+labels → value, for exporter round-trip tests."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        samples[key] = float(raw)
    return samples
