"""OPESS: order-preserving encryption with splitting and scaling (§5.2).

The value index must let the server answer range predicates without seeing
values, against an adversary who knows the *exact* plaintext frequency of
every field.  Plain order-preserving encryption fails that adversary —
ciphertext frequencies mirror plaintext frequencies — so the paper layers
two defences on top of an OPE function ``enc``:

**Splitting** (flattening the distribution): find three consecutive chunk
sizes ``m−1, m, m+1`` such that every occurrence count ``nᵢ`` decomposes as
``nᵢ = k¹ᵢ(m−1) + k²ᵢ·m + k³ᵢ(m+1)``; map the i-th value's occurrences
chunk-by-chunk to distinct ciphertexts, so every ciphertext occurs ``m−1``,
``m`` or ``m+1`` times (Figure 6).  The j-th chunk of value ``v`` is
displaced to ``enc(v + (w₁+…+w_j)·δ)`` where the ``w``'s are secret weights
in ``(0, 1/(K+1))`` and ``δ`` is the value gap — which keeps ciphertexts of
different plaintexts from straddling (requirement (*)).

**Scaling** (defeating total-count reconciliation): splitting preserves
``Σnᵢ``, so an attacker could group adjacent ciphertexts until they match a
known count.  Each value therefore gets a random scale factor ``sᵢ`` and
every index entry of its chunks is replicated ``sᵢ`` times, destroying the
total-count invariant.

Implementation notes (deviations are called out in DESIGN.md):

* We take ``δ`` as the *minimum* gap between consecutive values.  The
  paper's prose says maximum, but its own non-straddling requirement (*)
  needs displacements smaller than the gap to the *next* value, which only
  the minimum gap guarantees in general (the paper's worked example uses
  two consecutive values, where the two coincide).
* Weights are drawn on a discrete grid inside ``(0, 1/(K+1))`` so that
  distinct displacements survive the OPE function's fixed-point
  quantization; when the natural gap is too small the whole field is
  stretched by an integer factor the client remembers.
* Categorical domains are mapped to integer ranks ("If the domain is not
  real or rational, then we map it to such a domain.  The client keeps the
  mapping.").
* A re-plan after a write (the paper leaves updates to §8) is *carried*
  from the plan it replaces: every weight, scale and chunk ciphertext it
  would draw or compute from scratch that the old plan already holds is
  taken from it — see :func:`build_field_plan`.  The result is equal, byte
  for byte, to a plan built from scratch.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from repro.crypto.ope import OrderPreservingEncryption
from repro.crypto.prf import DeterministicRandom
from repro.xpath.evaluator import comparator


def find_chunk_triple(counts: list[int]) -> int:
    """Choose the paper's ``m``: the largest middle chunk size that works.

    ``m`` works when every count ≥ 2 is expressible with chunk sizes
    ``(m−1, m, m+1)``; a count ``n`` is expressible iff some chunk count
    ``t`` satisfies ``t(m−1) ≤ n ≤ t(m+1)``.  Counts of 1 are handled by
    the separate singleton rule and don't constrain ``m``.  ``(2,3,4)``
    (m = 3) always works, and the paper picks the maximum ``m`` "so
    intuitively the number of keys needed is reduced".
    """
    relevant = [n for n in counts if n >= 2]
    if not relevant:
        return 3
    upper = min(relevant) + 1
    for m in range(upper, 2, -1):
        if all(_expressible(n, m) for n in relevant):
            return m
    return 3  # unreachable in practice: m=3 expresses every n >= 2


def _expressible(n: int, m: int) -> bool:
    low_t = -(-n // (m + 1))  # ceil
    high_t = n // (m - 1)
    return low_t <= high_t


def decompose_count(n: int, m: int) -> list[int]:
    """Split ``n`` occurrences into chunks of size m−1, m or m+1.

    Returns the concrete chunk-size list (e.g. 34 with m = 7 →
    ``[6, 7, 7, 7, 7]``, the paper's 34 = 1·6 + 4·7 + 0·8 example).
    """
    if n < 2:
        raise ValueError("singleton counts use the dedicated rule")
    t = -(-n // (m + 1))
    while t * (m - 1) > n:  # pragma: no cover - guarded by find_chunk_triple
        t += 1
    remainder = n - t * m
    if remainder >= 0:
        chunks = [m + 1] * remainder + [m] * (t - remainder)
    else:
        chunks = [m - 1] * (-remainder) + [m] * (t + remainder)
    assert sum(chunks) == n and len(chunks) == t
    return sorted(chunks)


@dataclass
class FieldPlan:
    """The client's secret OPESS parameters for one leaf field."""

    field_name: str
    is_numeric: bool
    #: plaintext value → position on the (possibly stretched) number line
    mapping: dict[str, float]
    #: sorted plaintext values (by position)
    ordered_values: list[str]
    m: int
    #: K sorted secret splitting weights in (0, 1/(K+1))
    weights: list[float]
    #: minimum gap between consecutive positions
    delta: float
    #: integer stretch factor applied to numeric domains
    stretch: int
    #: value → chunk sizes
    chunk_plan: dict[str, list[int]]
    #: value → scale factor sᵢ ∈ [1, 10]
    scales: dict[str, int]
    # --- owner state a re-plan carries (not the paper's parameters: never
    # compared, printed or persisted) ---
    #: the OPE function the plan was sized for
    ope: Optional[OrderPreservingEncryption] = field(
        default=None, compare=False, repr=False
    )
    #: the scale draws of this key count, and the stream that extends them
    scale_draws: Optional["_ScaleDraws"] = field(
        default=None, compare=False, repr=False
    )
    #: position → its chunk ciphertexts under :attr:`ope`, as far as
    #: computed; only positions of :attr:`mapping` are kept
    ciphertexts: dict[float, list[int]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def key_count(self) -> int:
        """K: the number of splitting weights (the paper's key count)."""
        return len(self.weights)

    def value_at_position(self, position: float) -> Optional[str]:
        """Invert the mapping: which plaintext value owns this position?

        A chunk ciphertext decrypts to ``position(v) + displacement`` with
        ``displacement < δ``, and consecutive value positions are at least
        ``δ`` apart, so the owning value is the largest value whose
        position is ≤ the decrypted position (within a half-δ tolerance
        below, to absorb OPE quantization).  Returns None when the
        position falls below every value.
        """
        best: Optional[str] = None
        for value in self.ordered_values:
            if self.mapping[value] <= position + self.delta * 1e-6:
                best = value
            else:
                break
        return best

    def displacement(self, chunk_index: int) -> float:
        """Cumulative displacement (w₁+…+w_j)·δ of the j-th chunk (1-based)."""
        return sum(self.weights[:chunk_index]) * self.delta

    @property
    def max_displacement(self) -> float:
        return self.displacement(len(self.weights))


def build_field_plan(
    field_name: str,
    histogram: Counter,
    stream: DeterministicRandom,
    ope: OrderPreservingEncryption,
    previous: Optional[FieldPlan] = None,
) -> FieldPlan:
    """Derive the OPESS plan for one field from its plaintext histogram.

    ``stream`` is the field's own OPESS stream, fresh: the plan draws the
    weights from it, then one scale per value in position order, and keeps
    it to draw more scales for a later re-plan.

    ``previous`` is the field's current plan, when a write re-plans it.
    The result equals the from-scratch plan; what the old plan already
    holds is taken from it instead of drawn or computed again:

    * with the same key count ``K`` the stream draws the same weights and
      the same scale sequence, so both are reused — a prefix when the
      field lost values, the same stream continued when it gained some;
    * a chunk ciphertext is ``enc(position + (w₁+…+w_j)·δ)``, with the
      position and ``δ`` both stretched, so when ``δ`` is also unchanged
      each position the old plan had keeps its ciphertexts and only new
      positions are encrypted (by :func:`build_value_index`).  A
      categorical field's positions are its ranks, so a write that swaps
      one distinct value for another encrypts nothing.
    """
    if not histogram:
        raise ValueError("cannot plan an empty field")
    values = list(histogram)
    base_positions: dict[str, float] = {}
    if all(_is_finite_number(value) for value in values):
        base_positions = {value: float(value) for value in values}
    # Numeric when every value is a distinct number: two spellings of one
    # number ("10", "010") would share a position, so they rank as strings.
    is_numeric = len(set(base_positions.values())) == len(values)
    if not is_numeric:
        base_positions = {
            value: float(rank) for rank, value in enumerate(sorted(values))
        }

    ordered = sorted(values, key=base_positions.__getitem__)
    gaps = [
        base_positions[b] - base_positions[a]
        for a, b in zip(ordered, ordered[1:])
    ]
    delta = min(gaps) if gaps else 1.0

    m = find_chunk_triple(list(histogram.values()))
    chunk_plan: dict[str, list[int]] = {}
    for value in ordered:
        count = histogram[value]
        if count == 1:
            # The paper's singleton rule: split a unique occurrence into m
            # ciphertext values (all indexing the same occurrence).
            chunk_plan[value] = [1] * m
        else:
            chunk_plan[value] = decompose_count(count, m)
    key_count = max(len(chunks) for chunks in chunk_plan.values())

    # Stretch the domain if the weight grid would collide under the OPE
    # quantization: we need grid_step * delta >= 10 quantization steps.
    grid_cells = 4 * key_count * (key_count + 1)
    min_step = 1.0 / grid_cells
    required = 10.0 / ope.scale
    stretch = 1
    if min_step * delta < required:
        stretch = int(required / (min_step * delta)) + 1
    if stretch > 1:
        base_positions = {
            value: position * stretch
            for value, position in base_positions.items()
        }
        delta *= stretch
    # Sanity: the stretched domain must still fit the OPE domain.
    for value in (ordered[0], ordered[-1]):
        ope.quantize(base_positions[value] + delta)

    ciphertexts: dict[float, list[int]] = {}
    if previous is not None and previous.key_count == key_count:
        weights = previous.weights
        scale_draws = previous.scale_draws
        if previous.ope is ope and previous.delta == delta:
            kept = previous.ciphertexts
            ciphertexts = {
                position: kept[position]
                for position in base_positions.values()
                if position in kept
            }
    else:
        weights = _draw_weights(key_count, stream)
        scale_draws = _ScaleDraws(stream)
    scales = dict(zip(ordered, scale_draws.first(len(ordered))))

    return FieldPlan(
        field_name=field_name,
        is_numeric=is_numeric,
        mapping=base_positions,
        ordered_values=ordered,
        m=m,
        weights=weights,
        delta=delta,
        stretch=stretch,
        chunk_plan=chunk_plan,
        scales=scales,
        ope=ope,
        scale_draws=scale_draws,
        ciphertexts=ciphertexts,
    )


class _ScaleDraws:
    """The scale factors one key count's stream draws, in draw order.

    The stream draws the weights first, then one scale per value in
    position order, so for a given ``K`` the ``i``-th value's scale is
    always the ``i``-th draw after the weights.  Every plan carried from
    the one that opened the stream shares this object: a plan takes a
    prefix, and a larger plan extends the list from the stream, which
    stays positioned just past the last draw.
    """

    __slots__ = ("_stream", "_drawn")

    def __init__(self, stream: DeterministicRandom) -> None:
        self._stream = stream
        self._drawn: list[int] = []

    def first(self, count: int) -> list[int]:
        """The first ``count`` scale draws, drawing the missing ones."""
        while len(self._drawn) < count:
            self._drawn.append(self._stream.randint(1, 10))
        return self._drawn[:count]


def _draw_weights(key_count: int, stream: DeterministicRandom) -> list[float]:
    """K distinct weights on a grid inside (0, 1/(K+1)).

    Drawing on a grid guarantees pairwise separation of at least one grid
    step, which the caller has already sized against the OPE quantization.
    """
    cells = 4 * key_count * (key_count + 1)
    chosen: set[int] = set()
    while len(chosen) < key_count:
        chosen.add(stream.randint(1, cells))
    return [cell / (cells * (key_count + 1.0)) for cell in sorted(chosen)]


def _is_finite_number(value: str) -> bool:
    """Whether ``value`` parses as a finite real."""
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


@dataclass(frozen=True)
class KeyRange:
    """An inclusive range of OPE keys: ``low <= key <= high``."""

    low: int
    high: int


def chunk_ciphertexts(plan: FieldPlan, value: str, ope: OrderPreservingEncryption) -> list[int]:
    """The OPE ciphertexts of every chunk of ``value`` (ordered)."""
    return _chunk_ciphertexts_of(plan, [value], ope)[0]


def _chunk_ciphertexts_of(
    plan: FieldPlan, values: list[str], ope: OrderPreservingEncryption
) -> list[list[int]]:
    """:func:`chunk_ciphertexts` of each value, from one OPE batch.

    A chunk ciphertext is a function of the value's position, the chunk's
    displacement and the OPE key, so under the plan's own OPE the plan
    keeps them per position (:attr:`FieldPlan.ciphertexts`) and only
    positions it has not seen yet — or chunks past those it has — are
    encrypted.
    """
    memo = plan.ciphertexts if ope is plan.ope else {}
    positions = [plan.mapping[value] for value in values]
    counts = [len(plan.chunk_plan[value]) for value in values]
    missing = [
        (position, len(memo.get(position, ())), count)
        for position, count in zip(positions, counts)
        if len(memo.get(position, ())) < count
    ]
    if missing:
        displacements = [
            plan.displacement(j) for j in range(1, plan.key_count + 1)
        ]
        fresh = iter(
            ope.encrypt_many(
                ope.quantize(position + displacements[chunk])
                for position, have, count in missing
                for chunk in range(have, count)
            )
        )
        for position, have, count in missing:
            memo[position] = memo.get(position, []) + list(
                islice(fresh, count - have)
            )
    return [
        memo[position][:count] for position, count in zip(positions, counts)
    ]


def translate_predicate(
    plan: FieldPlan,
    op: str,
    literal: str,
    ope: OrderPreservingEncryption,
) -> list[KeyRange]:
    """Figure 7(a): translate a value predicate into index key ranges.

    The owner knows every distinct value of the field, so it tests each
    with :func:`~repro.xpath.evaluator.comparator` — the rule the join and
    the evaluator apply — and sends one inclusive range per maximal run of
    matching values in position order: from the run's first value's first
    chunk ``enc(v + w₁δ)`` to its last value's last possible chunk
    ``enc(v' + (Σw)δ)``.  Non-straddling (*) makes each range cover
    exactly the chunks of its run, so the ranges match exactly the
    field's matching values, whatever the literal and however the
    matching values lie in the field's order.
    """
    holds = comparator(op, literal)
    first_chunk = plan.weights[0] * plan.delta
    ranges = []
    for matched, run in groupby(plan.ordered_values, key=holds):
        if matched:
            values = list(run)
            ranges.append(
                KeyRange(
                    ope.encrypt_float(plan.mapping[values[0]] + first_chunk),
                    ope.encrypt_float(
                        plan.mapping[values[-1]] + plan.max_displacement
                    ),
                )
            )
    return ranges


class KeyRuns:
    """One field's value index: the §5.2 ⟨evalue, Bid⟩ entries, key-ordered.

    The paper keeps these entries in a B-tree; what the server holds of
    them is their multiset and their order, and sorted arrays hold exactly
    that (DESIGN.md, Substitutions).  ``keys`` are the field's OPE keys,
    strictly increasing; ``runs[i]`` is every block id stored under
    ``keys[i]``, in build order — scaling repeats an entry, so a run holds
    duplicates, and their counts are exactly what a frequency attacker
    profiles.  Requirement (*) hands a field's entries over in key order,
    and every write rebuilds the whole field, so the index is never edited
    in place: a range query is two binary searches and a slice.
    """

    __slots__ = ("keys", "runs", "_size")

    def __init__(self, keys: list[int], runs: list[list[int]]) -> None:
        """Hold ``keys`` and ``runs``, one run per key (the caller hands
        them over).  Raises ``ValueError`` if a key is not larger than
        the one before it.
        """
        for previous, key in zip(keys, keys[1:]):
            if not previous < key:
                raise ValueError(
                    f"index keys out of order: {key!r} after {previous!r}"
                )
        self.keys = keys
        self.runs = runs
        self._size = sum(map(len, runs))

    @classmethod
    def from_sorted(cls, entries: Iterable[tuple[int, int]]) -> "KeyRuns":
        """Group ⟨key, block⟩ entries in non-decreasing key order into runs.

        Equal neighbours form one run, in the order they arrive; a key
        smaller than the one before it is a ``ValueError``.
        """
        keys: list[int] = []
        runs: list[list[int]] = []
        for key, run in groupby(entries, key=itemgetter(0)):
            keys.append(key)
            runs.append([block for _, block in run])
        return cls(keys, runs)

    def __len__(self) -> int:
        """Number of entries, duplicates counted."""
        return self._size

    def range_scan(self, low: int, high: int) -> Iterator[tuple[int, int]]:
        """The ⟨key, block⟩ entries with ``low <= key <= high``, in order."""
        start = bisect_left(self.keys, low)
        end = bisect_right(self.keys, high, start)
        for key, run in zip(self.keys[start:end], self.runs[start:end]):
            for block in run:
                yield key, block

    def items(self) -> Iterator[tuple[int, int]]:
        """Every ⟨key, block⟩ entry, in key order."""
        for key, run in zip(self.keys, self.runs):
            for block in run:
                yield key, block


@dataclass
class ValueIndex:
    """The server-side value index: one :class:`KeyRuns` per field token."""

    fields: dict[str, KeyRuns] = field(default_factory=dict)
    #: field token → the epoch of the last write that rebuilt its runs.
    #: Kept apart from :attr:`StructuralIndex.key_stamps
    #: <repro.core.dsi.StructuralIndex.key_stamps>`: a token is also the
    #: structural key of its field's block entries, and a value rewrite
    #: moves none of them.  Derived, never persisted.
    stamps: dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def lookup_blocks(
        self, field_token: str, ranges: list[KeyRange]
    ) -> set[int]:
        """Block ids whose entries fall in any of the key ranges."""
        entries = self.fields.get(field_token)
        if entries is None:
            return set()
        blocks: set[int] = set()
        for key_range in ranges:
            for _, block_id in entries.range_scan(key_range.low, key_range.high):
                blocks.add(block_id)
        return blocks

    def total_entries(self) -> int:
        return sum(map(len, self.fields.values()))

    def ciphertext_histogram(self, field_token: str) -> Counter:
        """What the frequency attacker sees: key → entry count."""
        entries = self.fields.get(field_token)
        if entries is None:
            return Counter()
        return Counter(dict(zip(entries.keys, map(len, entries.runs))))


def build_value_index(
    occurrences: dict[str, list[tuple[str, int]]],
    plans: dict[str, FieldPlan],
    field_tokens: dict[str, str],
    ope: OrderPreservingEncryption,
) -> ValueIndex:
    """Build each field's :class:`KeyRuns` from its occurrence list.

    ``occurrences[field]`` lists ``(value, block_id)`` for every encrypted
    occurrence, in document order.  Occurrences of a value are dealt to its
    chunks in order; every resulting ⟨ciphertext, block⟩ entry appears
    ``sᵢ`` times (the scaling step).  Requirement (*) puts a field's keys in
    order already when its values are taken by position and each value's
    chunks in order, so each key's run — its blocks, each repeated ``sᵢ``
    times — is appended as it is made, and no sort is needed.
    """
    index = ValueIndex()
    for field_name, occurrence_list in occurrences.items():
        plan = plans[field_name]
        by_value: dict[str, list[int]] = {}
        for value, block_id in occurrence_list:
            by_value.setdefault(value, []).append(block_id)
        values = sorted(by_value, key=plan.mapping.__getitem__)
        keys: list[int] = []
        runs: list[list[int]] = []
        for value, ciphertexts in zip(
            values, _chunk_ciphertexts_of(plan, values, ope)
        ):
            block_ids = by_value[value]
            chunks = plan.chunk_plan[value]
            scale = plan.scales[value]
            keys.extend(ciphertexts)
            if len(block_ids) == 1 and len(chunks) > 1:
                # Singleton rule: every chunk indexes the one occurrence.
                runs.extend(block_ids * scale for _ in ciphertexts)
                continue
            cursor = 0
            for chunk_size in chunks:
                runs.append(
                    [
                        block_id
                        for block_id in block_ids[cursor : cursor + chunk_size]
                        for _ in range(scale)
                    ]
                )
                cursor += chunk_size
            assert cursor == len(block_ids)
        index.fields[field_tokens[field_name]] = KeyRuns(keys, runs)
    return index
