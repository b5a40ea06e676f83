"""Property-based OPESS validation on random histograms and predicates.

For arbitrary value histograms, the whole OPESS pipeline — plan, split,
encrypt, index, translate, scan — must satisfy the paper's contracts:
non-straddling order (*), bounded flatness, and sound-superset predicate
translation against a brute-force oracle.

A write re-plans its field from the plan it replaces
(``build_field_plan(..., previous=plan)``).  Along any chain of histogram
edits the carried plan must equal the from-scratch one, and the rows it
indexes must equal the one-insort-per-entry build over the from-scratch
plan — also across a ``save_system`` → ``load_system`` between writes.
"""

import random
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.client import canonical_node
from repro.core.constraints import parse_constraints
from repro.core.opess import (
    KeyRuns,
    build_field_plan,
    build_value_index,
    chunk_ciphertexts,
    translate_predicate,
)
from repro.core.storage import load_system, save_system
from repro.core.system import SecureXMLSystem
from repro.crypto.ope import OrderPreservingEncryption
from repro.crypto.prf import DeterministicRandom
from repro.workloads.xmark import build_xmark_database, xmark_constraints
from repro.xmldb.builder import TreeBuilder
from repro.xpath.evaluator import compare_values, evaluate
from updates_oracle import build_value_index_by_insertion

_OPE = OrderPreservingEncryption(b"prop-ope-key-16b")


def _stream(seed: int) -> DeterministicRandom:
    return DeterministicRandom(seed.to_bytes(16, "big"), "prop")


_numeric_histograms = st.dictionaries(
    st.integers(min_value=-500, max_value=500).map(str),
    st.integers(min_value=1, max_value=40),
    min_size=1,
    max_size=8,
)

_categorical_histograms = st.dictionaries(
    st.from_regex(r"[a-z]{2,6}", fullmatch=True),
    st.integers(min_value=1, max_value=25),
    min_size=1,
    max_size=6,
)


class TestPlanProperties:
    @given(_numeric_histograms, st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_non_straddling_order(self, histogram, seed):
        plan = build_field_plan("f", Counter(histogram), _stream(seed), _OPE)
        all_ciphertexts = []
        for value in plan.ordered_values:
            chunks = chunk_ciphertexts(plan, value, _OPE)
            assert chunks == sorted(chunks)
            all_ciphertexts.extend(chunks)
        # Requirement (*): ciphertexts of different plaintexts never
        # interleave.
        assert all_ciphertexts == sorted(all_ciphertexts)
        assert len(set(all_ciphertexts)) == len(all_ciphertexts)

    @given(_numeric_histograms, st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_flatness(self, histogram, seed):
        plan = build_field_plan("f", Counter(histogram), _stream(seed), _OPE)
        for value, count in histogram.items():
            chunks = plan.chunk_plan[value]
            if count == 1:
                assert chunks == [1] * plan.m
            else:
                assert sum(chunks) == count
                assert set(chunks) <= {plan.m - 1, plan.m, plan.m + 1}

    @given(_categorical_histograms, st.integers(0, 2**32))
    @example({"nan": 1, "inf": 2}, 0)  # float() parses these words
    @settings(max_examples=30, deadline=None)
    def test_categorical_round_trip(self, histogram, seed):
        plan = build_field_plan("f", Counter(histogram), _stream(seed), _OPE)
        for value in plan.ordered_values:
            position = plan.mapping[value]
            assert plan.value_at_position(position) == value
            # A mid-displacement position still resolves to the value.
            assert plan.value_at_position(
                position + plan.max_displacement * 0.99
            ) == value


class TestPredicateOracle:
    @given(
        _numeric_histograms,
        st.integers(0, 2**32),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.integers(min_value=-520, max_value=520).map(str),
    )
    @settings(max_examples=60, deadline=None)
    def test_translation_sound_superset(self, histogram, seed, op, literal):
        """Translated ranges find exactly the matching blocks, for every
        operator and every literal, in the field or not."""
        assume(len(histogram) >= 2)
        plan = build_field_plan("f", Counter(histogram), _stream(seed), _OPE)

        # Index: occurrence i of value v -> block hash(v, i).
        occurrences = []
        truth_blocks = set()
        block_counter = 0
        for value, count in sorted(histogram.items()):
            for _ in range(count):
                block_counter += 1
                occurrences.append((value, block_counter))
                if compare_values(value, op, literal):
                    truth_blocks.add(block_counter)
        index = build_value_index(
            {"f": occurrences}, {"f": plan}, {"f": "TOK"}, _OPE
        )
        ranges = translate_predicate(plan, op, literal, _OPE)
        got_blocks = index.lookup_blocks("TOK", ranges)

        assert truth_blocks <= got_blocks, "lost a matching block"
        assert got_blocks == truth_blocks, "over-fetched"


# ----------------------------------------------------------------------
# A hosted predicate answers what plaintext evaluation answers
# ----------------------------------------------------------------------
#: Integers, decimals, words, padded numbers and their plain spellings,
#: ``nan`` / ``inf``, non-ASCII digits, and ``""`` — an empty ``<v/>``.
_MIXED_POOL = [
    "3", "10", "-7", "0", "2.5", "-0.75", "1e3", "276543", "0276543",
    "007", "7", "abc", "Zeta", "nan", "inf", "-inf", "\u0663",
    "\u0661\u0660", "",
]
#: Literals no pool value spells, but some equal or straddle as numbers.
_OUTSIDE_LITERALS = [
    "9.5", "10.0", "2.50", "+3", "276543.0", "abd", "A", "Infinity",
    "NaN", "-1e400", "\u0665", "-", ".",
]
_OPERATORS = ["=", "!=", "<", "<=", ">", ">="]


def _mixed_document(values: list[str]):
    """One ``<p>`` per value: ``<n>`` names it, ``<v>`` holds it."""
    builder = TreeBuilder("r")
    for index, value in enumerate(values):
        with builder.element("p"):
            builder.leaf("n", f"x{index}")
            if value:
                builder.leaf("v", value)
            else:
                with builder.element("v"):
                    pass
    return builder.document()


@given(
    st.lists(st.sampled_from(_MIXED_POOL), min_size=1, max_size=8),
    st.lists(
        st.tuples(
            st.sampled_from(_OPERATORS),
            st.sampled_from(_MIXED_POOL + _OUTSIDE_LITERALS),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(["opt", "top"]),
)
@settings(max_examples=200, deadline=None)
# Shrunk from a run against the neighbour-anchored translation, which
# answered [] here: '3' equals the field's one value as a number but is
# spelled differently, and that rule sent no range for '=' on a literal
# the field did not hold.
@example(["\u0663"], [("=", "3")], "opt")
@example(["10", "abc", "3"], [(">", "9.5"), ("=", "10.0")], "opt")
def test_hosted_predicates_answer_as_plaintext(values, predicates, scheme):
    """``//p[v op 'literal']/n`` over an encrypted ``v`` answers what the
    evaluator answers on the plaintext, whatever mix of numbers and words
    the field holds and whether or not the literal is one of them."""
    document = _mixed_document(values)
    system = SecureXMLSystem.host(
        document, parse_constraints(["//p/v"]), scheme=scheme,
        master_key=b"mixed-field-master-key",
    )
    for op, literal in predicates:
        query = f"//p[v {op} '{literal}']/n"
        expected = sorted(canonical_node(n) for n in evaluate(document, query))
        assert system.query(query).canonical() == expected, query


class TestKeyRuns:
    """A field's value index is its entries' key-ordered runs."""

    @given(
        st.lists(
            st.tuples(st.integers(-200, 200), st.integers(0, 9)), max_size=300
        ),
        st.integers(-210, 210),
        st.integers(-210, 210),
    )
    @settings(max_examples=80, deadline=None)
    def test_range_scan_matches_filter(self, entries, low, high):
        """``items()`` gives the entries back in build order, duplicates
        included, and a scan is the brute-force filter of ``items()``."""
        entries.sort(key=itemgetter(0))  # stable: arrival order per key
        index = KeyRuns.from_sorted(entries)
        assert list(index.items()) == entries
        assert len(index) == len(entries)
        assert index.keys == sorted({key for key, _ in entries})
        for first, last in ((low, high), (high, low), (low, low)):
            assert list(index.range_scan(first, last)) == [
                (key, block)
                for key, block in index.items()
                if first <= key <= last
            ]

    @given(
        st.dictionaries(
            st.integers(-200, 200),
            st.lists(st.integers(0, 9), min_size=1, max_size=6),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_runs_equal_their_grouped_entries(self, by_key):
        keys = sorted(by_key)
        runs = [list(by_key[key]) for key in keys]
        entries = [(key, block) for key in keys for block in by_key[key]]
        assert list(KeyRuns(keys, runs).items()) == entries
        grouped = KeyRuns.from_sorted(entries)
        assert (grouped.keys, grouped.runs) == (keys, runs)

    @given(st.lists(st.integers(0, 20), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_keys_must_strictly_increase(self, keys):
        increasing = all(a < b for a, b in zip(keys, keys[1:]))
        try:
            KeyRuns(keys, [[0] for _ in keys])
        except ValueError as exc:
            assert "out of order" in str(exc)
            assert not increasing
        else:
            assert increasing

    def test_keys_out_of_order_or_repeated_are_refused(self):
        for keys in ([1, 3, 2], [1, 1], [1, 2, 2, 3]):
            with pytest.raises(ValueError, match="out of order"):
                KeyRuns(keys, [[0] for _ in keys])
        for entries in ([(1, 0), (3, 0), (2, 0)], [(1, 0), (2, 0), (1, 1)]):
            with pytest.raises(ValueError, match="out of order"):
                KeyRuns.from_sorted(entries)

    def test_from_sorted_accepts_an_iterator(self):
        index = KeyRuns.from_sorted(iter([(1, "a"), (1, "b"), (2, "c")]))
        assert (index.keys, index.runs) == ([1, 2], [["a", "b"], ["c"]])
        assert list(index.items()) == [(1, "a"), (1, "b"), (2, "c")]

    def test_an_empty_index(self):
        index = KeyRuns.from_sorted([])
        assert len(index) == 0
        assert list(index.items()) == []
        assert list(index.range_scan(-(2**64), 2**64)) == []


class TestIndexProperties:
    @given(_numeric_histograms, st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_scaling_multiplies_entries(self, histogram, seed):
        plan = build_field_plan("f", Counter(histogram), _stream(seed), _OPE)
        occurrences = []
        block = 0
        for value, count in sorted(histogram.items()):
            for _ in range(count):
                block += 1
                occurrences.append((value, block))
        index = build_value_index(
            {"f": occurrences}, {"f": plan}, {"f": "TOK"}, _OPE
        )
        entries = index.fields["TOK"]
        KeyRuns(entries.keys, entries.runs)  # refuses keys out of order
        expected = 0
        for value, count in histogram.items():
            per_value = plan.m if count == 1 else count
            expected += per_value * plan.scales[value]
        assert len(entries) == expected

    @given(_numeric_histograms, st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_min_max_keys_invert_to_extremes(self, histogram, seed):
        plan = build_field_plan("f", Counter(histogram), _stream(seed), _OPE)
        occurrences = [
            (value, index)
            for index, value in enumerate(sorted(histogram))
            for _ in range(histogram[value])
        ]
        index = build_value_index(
            {"f": occurrences}, {"f": plan}, {"f": "TOK"}, _OPE
        )
        keys = index.fields["TOK"].keys
        numeric = sorted(histogram, key=float)
        assert plan.value_at_position(_OPE.decrypt_float(keys[0])) == numeric[0]
        assert plan.value_at_position(_OPE.decrypt_float(keys[-1])) == numeric[-1]


# ----------------------------------------------------------------------
# A carried re-plan equals a from-scratch one
# ----------------------------------------------------------------------
#: Integers, quarters (δ = 0.25) and two values 1e-4 apart, whose δ needs
#: the domain stretched once ``K`` ≥ 2.  No two strings share a position.
_NUMERIC_POOL = (
    [str(n) for n in range(-12, 13)]
    + [f"{n}.25" for n in range(-3, 4)]
    + ["1000.0001", "1000.0002"]
)
_CATEGORICAL_POOL = [f"{a}{b}" for a in "abcde" for b in "xyz"]

#: ``(value, count)`` sets ``count`` occurrences (0 removes the value);
#: ``None`` empties the field.
_Edit = tuple[str, int] | None


def _occurrences(histogram: Counter) -> list[tuple[str, int]]:
    """The histogram as a document-order occurrence list, values
    interleaved the way a document holds them."""
    occurrences = []
    for turn in range(max(histogram.values())):
        for value in sorted(histogram):
            if turn < histogram[value]:
                occurrences.append((value, len(occurrences)))
    return occurrences


def _run_chain(seed: int, edits: list[_Edit]) -> set[str]:
    """Apply ``edits`` in turn, re-planning from the last plan as a write
    does; assert the carried plan equals the from-scratch one and its rows
    equal the insert loop's.  Returns what the chain exercised."""
    histogram: Counter = Counter()
    previous = None
    seen: set[str] = set()
    for edit in edits:
        if edit is None:
            if histogram:
                seen.add("emptied")
            histogram.clear()
        else:
            value, count = edit
            seen.add(
                "removed" if count == 0 and value in histogram
                else "added" if value not in histogram and count
                else "recounted" if count and histogram[value] != count
                else "unchanged"
            )
            histogram[value] = count
            histogram = +histogram  # drop zero counts
        if not histogram:
            previous = None  # the engine drops an emptied field's plan
            continue
        carried = build_field_plan(
            "f", histogram, _stream(seed), _OPE, previous=previous
        )
        scratch = build_field_plan("f", histogram, _stream(seed), _OPE)
        assert carried == scratch
        assert carried.key_count == scratch.key_count
        if previous is None:
            seen.add("refilled" if "emptied" in seen else "first")
        else:
            for name in ("m", "key_count", "delta", "stretch"):
                if getattr(previous, name) != getattr(carried, name):
                    seen.add(f"{name} changed")
            size = len(carried.ordered_values) - len(previous.ordered_values)
            seen.add("N grew" if size > 0 else "N shrank" if size else "N kept")
            if carried.ciphertexts:
                seen.add("ciphertexts carried")
        occurrences = _occurrences(histogram)
        rows = build_value_index({"f": occurrences}, {"f": carried}, {"f": "T"}, _OPE)
        expected = build_value_index_by_insertion(
            {"f": occurrences}, {"f": scratch}, {"f": "T"}, _OPE
        )
        entries = rows.fields["T"]
        KeyRuns(entries.keys, entries.runs)  # refuses keys out of order
        assert list(entries.items()) == list(expected.fields["T"].items())
        # The plan keeps exactly the positions it uses.
        assert set(carried.ciphertexts) == set(carried.mapping.values())
        previous = carried
    return seen


def _edits(pool: list[str], max_count: int):
    return st.lists(
        st.none()
        | st.tuples(st.sampled_from(pool), st.integers(0, max_count)),
        min_size=1,
        max_size=10,
    )


#: Fixed chains that between them exercise every kind of edit and every
#: parameter a re-plan may or may not carry (checked below).
_CHAINS: dict[str, tuple[int, list[_Edit]]] = {
    "categorical swap": (
        1,
        [("ax", 1), ("bx", 1), ("cy", 1), ("bx", 0), ("dz", 1), ("az", 1)],
    ),
    "categorical recounts": (
        2,
        [("ax", 5), ("by", 9), ("by", 2), ("cz", 14), ("ax", 0), ("ax", 3)],
    ),
    "numeric gaps": (
        3,
        [("1", 4), ("3", 4), ("2", 4), ("2.25", 4), ("2.25", 0), ("-7", 1)],
    ),
    "numeric stretch": (
        4,
        [("1000.0001", 1), ("1000.0002", 1), ("1000.0001", 9), ("5", 30),
         ("5", 0), ("1000.0001", 1)],
    ),
    "emptied and refilled": (
        5,
        [("ax", 2), ("bx", 2), None, ("bx", 2), ("cx", 2), ("bx", 0),
         ("cx", 0), ("dz", 7)],
    ),
}


@pytest.mark.parametrize("name", sorted(_CHAINS))
def test_fixed_chain_carries_to_the_from_scratch_plan(name):
    _run_chain(*_CHAINS[name])


def test_fixed_chains_exercise_every_carry_case():
    seen = set().union(*(_run_chain(*chain) for chain in _CHAINS.values()))
    assert {
        "added", "removed", "recounted", "emptied", "refilled",
        "m changed", "key_count changed", "delta changed", "stretch changed",
        "N grew", "N shrank", "N kept", "ciphertexts carried",
    } <= seen, seen


@given(st.integers(0, 2**32), _edits(_NUMERIC_POOL, 30))
@settings(max_examples=60, deadline=None)
@example(0, [("1", 2), ("1000.0001", 1), ("1000.0002", 9), ("1", 0)])
def test_numeric_chains_carry_to_the_from_scratch_plan(seed, edits):
    _run_chain(seed, edits)


@given(st.integers(0, 2**32), _edits(_CATEGORICAL_POOL, 20))
@settings(max_examples=60, deadline=None)
@example(0, [("ax", 1), ("bx", 1), None, ("cz", 3), ("ax", 1)])
def test_categorical_chains_carry_to_the_from_scratch_plan(seed, edits):
    _run_chain(seed, edits)


def _assert_plans_are_full_replans(system):
    """Every field's plan and rows equal a full re-plan's, as after a
    write the update oracle would build."""
    hosted, keyring = system.hosted, system.keyring
    for field_name, occurrences in hosted.occurrences.items():
        token = hosted.field_tokens[field_name]
        if not occurrences:
            assert field_name not in hosted.field_plans
            continue
        scratch = build_field_plan(
            field_name,
            Counter(value for value, _ in occurrences),
            keyring.opess_stream(field_name),
            keyring.ope,
        )
        assert hosted.field_plans[field_name] == scratch
        expected = build_value_index_by_insertion(
            {field_name: occurrences},
            {field_name: scratch},
            {field_name: token},
            keyring.ope,
        )
        assert list(hosted.value_index.fields[token].items()) == list(
            expected.fields[token].items()
        ), field_name


def test_writes_across_a_save_and_load_carry_to_full_replans(tmp_path):
    document = build_xmark_database(12, seed=3)
    people = [
        person.attribute("id").value
        for person in evaluate(document, "//person[creditcard]")
    ]
    master_key = b"carried-replan-key-16"
    system = SecureXMLSystem.host(
        document, xmark_constraints(), scheme="opt", master_key=master_key
    )
    rng = random.Random(7)

    def write(step):
        person = f"//person[@id='{rng.choice(people)}']"
        card = f"{step} {rng.randint(1000, 9999)}"
        system.update_value(f"{person}/creditcard", card)

    for step in range(4):
        write(step)
        _assert_plans_are_full_replans(system)
    save_system(system, str(tmp_path))
    system = load_system(str(tmp_path), master_key)
    _assert_plans_are_full_replans(system)
    for step in range(4, 8):
        write(step)
        _assert_plans_are_full_replans(system)
