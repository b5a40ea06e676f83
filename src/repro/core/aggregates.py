"""Aggregate query evaluation (§5.2 / §6.4).

The paper's OPESS design deliberately trades aggregate power for security:

    "because of splitting, aggregate queries involving COUNT cannot be
    evaluated without decryption, although queries involving MAX/MIN can
    still be evaluated correctly without decryption."

Two evaluation modes are provided:

* **exact mode** — run the secure pipeline, fold the plaintext answers on
  the client.  Works for every function (min, max, count, sum, avg) and is
  always exact; COUNT and SUM necessarily go this way (splitting and
  scaling destroy cardinalities server-side).

* **server mode** (min/max only) — the server walks the value index's keys
  from the wanted end until one's run holds a block the structural join
  matched, and returns that extreme *ciphertext*; the client inverts it
  through the OPE function and the field plan without decrypting any data
  block.  The join's output must be the answer itself: a residual plan
  (it outputs the document root), a positional step (its candidates are
  not pruned) or an order edge (its thresholds are relaxed) is refused
  before the fold
  (:func:`~repro.core.structural_join.superset_reason`).  Because index
  entries address encryption *blocks*, this is exact when each matched
  block contains only matched occurrences of the field (always true for
  per-node granularities like ``opt``/``app`` covers) and may otherwise
  include a value from an unmatched sibling inside a matched block — the
  same block-granularity caveat the paper's design carries.  A field
  whose plan orders its values otherwise than the exact fold — most often
  one mixing numbers and words: its plan orders them as strings, the
  exact fold puts numbers first — is refused (:func:`check_server_order`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.opess import FieldPlan
from repro.core.structural_join import match_pattern
from repro.core.translate import TranslatedQuery

AGGREGATE_FUNCTIONS = ("min", "max", "count", "sum", "avg")


@dataclass
class ServerAggregate:
    """The server's reply to a no-decryption MIN/MAX request."""

    #: extreme OPE ciphertext among encrypted matches (None if none)
    ciphertext: Optional[int]
    #: extreme plaintext value among plaintext matches (None if none)
    plaintext: Optional[str]
    #: how many index entries were scanned (for the trace)
    scanned_entries: int


def server_min_max(
    query: TranslatedQuery,
    structure,
    values,
    func: str,
) -> ServerAggregate:
    """Server side of the no-decryption MIN/MAX protocol.

    Runs the ordinary structural join, then folds over (a) the plaintext
    values of matched plaintext entries and (b) the value-index entries
    whose block is one of the matched encrypted blocks: keys are walked
    from the wanted end, and the first whose run holds a matched block is
    the field's extreme.  No block payload is touched.
    """
    if func not in ("min", "max"):
        raise ValueError("server aggregation supports only min/max")
    result = match_pattern(query, structure, values)
    entries = result.output_entries

    plaintext_best: Optional[str] = None
    blocks: set[int] = set()
    for entry in entries:
        if entry.block_id is not None:
            blocks.add(entry.block_id)
        elif entry.plaintext_value is not None:
            plaintext_best = _fold_plaintext(
                plaintext_best, entry.plaintext_value, func
            )

    extremes: list[int] = []
    scanned = 0
    for key in query.output.keys:
        entries = values.fields.get(key)
        if entries is None or not blocks:
            continue
        at = range(len(entries.keys))
        for index in at if func == "min" else reversed(at):
            run = entries.runs[index]
            scanned += len(run)
            if not blocks.isdisjoint(run):
                extremes.append(entries.keys[index])
                break
    ciphertext_best = (min if func == "min" else max)(extremes, default=None)

    return ServerAggregate(
        ciphertext=ciphertext_best,
        plaintext=plaintext_best,
        scanned_entries=scanned,
    )


def _fold_plaintext(current: Optional[str], value: str, func: str) -> str:
    if current is None:
        return value
    left, right = _coerce(current), _coerce(value)
    if func == "min":
        return current if left <= right else value
    return current if left >= right else value


def _coerce(value: str):
    """The exact fold's sort key: numbers first, by value, then words.

    ``nan`` has no place among numbers, so it ranks as a word, as it does
    in a field plan; ``inf`` stays a number.  Two spellings of one number
    order by spelling, so no answer order changes a fold.
    """
    try:
        number = float(value)
    except ValueError:
        return (1, value)
    if math.isnan(number):
        return (1, value)
    return (0, number, value)


def check_server_order(field: str, plan: Optional[FieldPlan]) -> None:
    """Refuse a server-side min/max the plan's order would answer wrong.

    The server's extreme is the extreme of the field's plan order: numeric
    for a numeric field, string for a categorical one.  :func:`fold_exact`
    orders by :func:`_coerce`: numbers first, numerically, then words.
    The two folds agree on every set of the field's values exactly when
    the two orders rank its values alike — always on a numeric field.  A
    categorical field they rank apart (most often one mixing numbers,
    ``inf`` included, with words) is the client's to fold.
    """
    if plan is None or plan.is_numeric:
        return
    if sorted(plan.ordered_values, key=_coerce) != plan.ordered_values:
        raise ValueError(
            f"field {field!r} is planned in another order than the exact "
            "fold's (numbers first): the server cannot fold it "
            "(use mode='exact')"
        )


def combine_min_max(
    server_reply: ServerAggregate,
    plan: Optional[FieldPlan],
    ope,
    func: str,
) -> Optional[str]:
    """Client side: invert the ciphertext and merge with the plaintext side.

    Inversion uses only the client's keys — ``ope.decrypt_float`` plus the
    field plan's position → value mapping — never a data block.
    """
    candidates: list[str] = []
    if server_reply.plaintext is not None:
        candidates.append(server_reply.plaintext)
    if server_reply.ciphertext is not None:
        if plan is None:
            raise ValueError(
                "server returned a ciphertext for a field with no plan"
            )
        position = ope.decrypt_float(server_reply.ciphertext)
        value = plan.value_at_position(position)
        if value is not None:
            candidates.append(value)
    if not candidates:
        return None
    best = candidates[0]
    for value in candidates[1:]:
        best = _fold_plaintext(best, value, func)
    return best


def fold_exact(values: list[str], func: str) -> Optional[float | int | str]:
    """Client-side exact aggregation over decrypted answer values."""
    if func not in AGGREGATE_FUNCTIONS:
        raise ValueError(
            f"unknown aggregate {func!r}; expected one of {AGGREGATE_FUNCTIONS}"
        )
    if func == "count":
        return len(values)
    if not values:
        return None
    if func in ("min", "max"):
        keyed = sorted(values, key=_coerce)
        return keyed[0] if func == "min" else keyed[-1]
    numbers = [float(v) for v in values]
    if func == "sum":
        return sum(numbers)
    return sum(numbers) / len(numbers)
