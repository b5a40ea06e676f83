"""Docs name only what exists: the metric tables of OBSERVABILITY.md.

Each row of a table in ``docs/OBSERVABILITY.md`` opens with the
backticked name of a counter or histogram.  Every such name must be
declared in :mod:`repro.obs.metrics` — a row left behind by a deleted
metric fails here instead of going stale.
"""

import re
from pathlib import Path

from repro.obs.metrics import COUNTERS, HISTOGRAMS

OBSERVABILITY = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"


def table_metric_names(text: str) -> list[str]:
    """The backticked names in the first cell of every table row."""
    names = []
    for line in text.splitlines():
        if line.startswith("|"):
            first_cell = line.strip().strip("|").split("|")[0]
            names += re.findall(r"`([^`]+)`", first_cell)
    return names


def test_every_metric_row_names_a_declared_metric():
    names = table_metric_names(OBSERVABILITY.read_text())
    assert len(names) >= 10, "the metric tables were not found"
    unknown = [name for name in names if name not in {**COUNTERS, **HISTOGRAMS}]
    assert unknown == [], unknown

