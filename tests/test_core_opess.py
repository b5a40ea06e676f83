"""Tests for OPESS: splitting, scaling, and the value index (§5.2)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.opess import (
    KeyRange,
    build_field_plan,
    build_value_index,
    chunk_ciphertexts,
    decompose_count,
    find_chunk_triple,
    translate_predicate,
)
from repro.crypto.ope import OrderPreservingEncryption
from repro.crypto.prf import DeterministicRandom


def ope():
    return OrderPreservingEncryption(b"o" * 16)


def stream(label="s"):
    return DeterministicRandom(b"s" * 16, label)


class TestChunkTriple:
    def test_paper_example_34(self):
        """The paper's 34 = 1·6 + 4·7 + 0·8 decomposition (m = 7)."""
        chunks = decompose_count(34, 7)
        assert sum(chunks) == 34
        assert set(chunks) <= {6, 7, 8}
        assert chunks == [6, 7, 7, 7, 7]

    def test_triple_2_3_4_expresses_everything(self):
        for n in range(2, 200):
            chunks = decompose_count(n, 3)
            assert sum(chunks) == n
            assert set(chunks) <= {2, 3, 4}

    def test_find_chunk_triple_maximal(self):
        # All counts >= 6: m can rise to 7 (6|7|8 chunks).
        m = find_chunk_triple([6, 7, 8, 13, 34])
        assert m >= 3
        for n in [6, 7, 8, 13, 34]:
            assert set(decompose_count(n, m)) <= {m - 1, m, m + 1}

    def test_find_chunk_triple_ignores_singletons(self):
        assert find_chunk_triple([1, 1, 1]) == 3

    def test_min_count_bounds_m(self):
        m = find_chunk_triple([2, 50])
        assert m == 3  # 2 = 1·2 forces m−1 <= 2

    @given(st.lists(st.integers(2, 500), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_decomposition_always_valid(self, counts):
        m = find_chunk_triple(counts)
        for n in counts:
            chunks = decompose_count(n, m)
            assert sum(chunks) == n
            assert set(chunks) <= {m - 1, m, m + 1}

    def test_decompose_rejects_singleton(self):
        with pytest.raises(ValueError):
            decompose_count(1, 3)


class TestFieldPlan:
    def test_numeric_field_detected(self):
        plan = build_field_plan("age", Counter({"30": 5, "41": 3}), stream(), ope())
        assert plan.is_numeric
        assert "30" in plan.mapping

    def test_categorical_field_ranked(self):
        plan = build_field_plan(
            "name", Counter({"bob": 4, "alice": 6}), stream(), ope()
        )
        assert not plan.is_numeric
        assert plan.mapping["alice"] < plan.mapping["bob"]

    def test_weights_sorted_distinct_in_range(self):
        plan = build_field_plan(
            "v", Counter({str(i): 5 + i for i in range(8)}), stream(), ope()
        )
        weights = plan.weights
        assert weights == sorted(weights)
        assert len(set(weights)) == len(weights)
        assert all(0 < w < 1 / (plan.key_count + 1) for w in weights)

    def test_max_displacement_below_delta(self):
        """Requirement (*): displacements never straddle the next value."""
        plan = build_field_plan(
            "v", Counter({"10": 7, "11": 9, "25": 3}), stream(), ope()
        )
        assert plan.max_displacement < plan.delta

    def test_delta_is_min_gap(self):
        plan = build_field_plan(
            "v", Counter({"10": 3, "11": 3, "99": 3}), stream(), ope()
        )
        assert plan.delta == pytest.approx(1.0 * plan.stretch)

    def test_scales_in_range(self):
        plan = build_field_plan(
            "v", Counter({str(i): 4 for i in range(10)}), stream(), ope()
        )
        assert all(1 <= s <= 10 for s in plan.scales.values())

    def test_singleton_rule(self):
        plan = build_field_plan("v", Counter({"5": 1, "9": 6}), stream(), ope())
        assert plan.chunk_plan["5"] == [1] * plan.m

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            build_field_plan("v", Counter(), stream(), ope())


class TestFlattening:
    """Figure 6: the ciphertext distribution is near-uniform."""

    def test_skewed_input_flattens(self):
        histogram = Counter(
            {"1001": 16, "932": 8, "23": 26, "77": 7, "90": 34, "12": 13}
        )
        plan = build_field_plan("fig6", histogram, stream(), ope())
        m = plan.m
        for value, chunks in plan.chunk_plan.items():
            if histogram[value] == 1:
                continue
            assert set(chunks) <= {m - 1, m, m + 1}

    def test_ciphertexts_strictly_ordered_within_and_across(self):
        histogram = Counter({"10": 7, "20": 9, "30": 4})
        plan = build_field_plan("v", histogram, stream(), ope())
        encryption = ope()
        all_ciphertexts = []
        for value in plan.ordered_values:
            ciphertexts = chunk_ciphertexts(plan, value, encryption)
            assert ciphertexts == sorted(ciphertexts)
            assert len(set(ciphertexts)) == len(ciphertexts)
            all_ciphertexts.extend(ciphertexts)
        # Requirement (*): no straddling between different values.
        assert all_ciphertexts == sorted(all_ciphertexts)

    def test_total_occurrences_preserved_before_scaling(self):
        histogram = Counter({"5": 12, "6": 9})
        plan = build_field_plan("v", histogram, stream(), ope())
        for value, count in histogram.items():
            assert sum(plan.chunk_plan[value]) == count


def build_small_index():
    occurrences = {
        "age": [("30", 1), ("30", 1), ("30", 2), ("41", 2), ("41", 3)]
    }
    plans = {
        "age": build_field_plan(
            "age", Counter({"30": 3, "41": 2}), stream(), ope()
        )
    }
    tokens = {"age": "AGETOKEN"}
    index = build_value_index(occurrences, plans, tokens, ope())
    return index, plans["age"]


class TestValueIndex:
    def test_entries_scaled(self):
        index, plan = build_small_index()
        entries = index.fields["AGETOKEN"]
        expected = sum(
            sum(plan.chunk_plan[v]) * plan.scales[v] for v in ("30", "41")
        )
        assert len(entries) == expected

    def test_lookup_blocks_equality(self):
        index, plan = build_small_index()
        ranges = translate_predicate(plan, "=", "30", ope())
        assert index.lookup_blocks("AGETOKEN", ranges) == {1, 2}

    def test_lookup_blocks_range(self):
        index, plan = build_small_index()
        ranges = translate_predicate(plan, ">", "30", ope())
        assert index.lookup_blocks("AGETOKEN", ranges) == {2, 3}
        ranges = translate_predicate(plan, "<", "41", ope())
        assert index.lookup_blocks("AGETOKEN", ranges) == {1, 2}

    def test_lookup_unknown_field(self):
        index, _ = build_small_index()
        assert index.lookup_blocks("NOPE", [KeyRange(-(2**64), 2**64)]) == set()

    def test_ciphertext_histogram_hides_plaintext_counts(self):
        """The §5.2 point: observed frequencies are chunk·scale, not nᵢ."""
        index, plan = build_small_index()
        histogram = index.ciphertext_histogram("AGETOKEN")
        assert 3 not in set(histogram.values()) or plan.scales["30"] != 1


class TestPredicateTranslation:
    """Figure 7(a) semantics, checked against brute-force evaluation."""

    @pytest.fixture
    def setup(self):
        histogram = Counter({"10": 5, "20": 7, "30": 4, "40": 6})
        plan = build_field_plan("f", histogram, stream("f"), ope())
        encryption = ope()
        cipher_of = {
            value: chunk_ciphertexts(plan, value, encryption)
            for value in histogram
        }
        return plan, encryption, cipher_of

    @pytest.mark.parametrize("op", ["=", "<", "<=", ">", ">=", "!="])
    @pytest.mark.parametrize(
        "literal",
        [
            "10", "20", "30", "40", "25", "inf", "-inf", "nan", "1e400",
            "20.0", "020", "abc", "",
        ],
    )
    def test_range_covers_exactly_matching_values(self, setup, op, literal):
        plan, encryption, cipher_of = setup
        ranges = translate_predicate(plan, op, literal, encryption)

        def in_ranges(ciphertext):
            return any(
                (r.low is None or ciphertext >= r.low)
                and (r.high is None or ciphertext <= r.high)
                for r in ranges
            )

        from repro.xpath.evaluator import compare_values

        for value, ciphertexts in cipher_of.items():
            expected = compare_values(value, op, literal)
            for ciphertext in ciphertexts:
                assert in_ranges(ciphertext) == expected, (
                    f"{value} {op} {literal}"
                )

    def test_equality_on_unknown_literal_is_empty(self, setup):
        plan, encryption, _ = setup
        assert translate_predicate(plan, "=", "25", encryption) == []

    def test_unsupported_operator_rejected(self, setup):
        plan, encryption, _ = setup
        with pytest.raises(ValueError):
            translate_predicate(plan, "~", "10", encryption)
