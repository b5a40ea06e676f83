"""Tests for aggregate evaluation (§6.4): exact mode and server MIN/MAX."""

from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (
    check_server_order,
    fold_exact,
    server_min_max,
)
from repro.core.constraints import parse_constraints
from repro.core.opess import build_field_plan
from repro.core.structural_join import match_pattern
from repro.core.system import SecureXMLSystem
from repro.crypto.ope import OrderPreservingEncryption
from repro.crypto.prf import DeterministicRandom
from repro.xmldb.builder import TreeBuilder
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints
from repro.xpath.evaluator import evaluate


_POOL = [
    "3", "10", "10.0", "010", "-7", "2.5", "1e3", "abc", "Zeta", "nan",
    "NaN", "inf", "-inf", "\u0663", "",
]


class TestFoldExact:
    def test_count(self):
        assert fold_exact(["a", "b", "b"], "count") == 3
        assert fold_exact([], "count") == 0

    def test_min_max_numeric(self):
        values = ["30", "4", "100"]
        assert fold_exact(values, "min") == "4"      # numeric, not lexicographic
        assert fold_exact(values, "max") == "100"

    def test_min_max_strings(self):
        values = ["pear", "apple"]
        assert fold_exact(values, "min") == "apple"
        assert fold_exact(values, "max") == "pear"

    def test_sum_avg(self):
        assert fold_exact(["1", "2", "3"], "sum") == 6.0
        assert fold_exact(["1", "2", "3"], "avg") == 2.0

    def test_empty_min_is_none(self):
        assert fold_exact([], "min") is None

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            fold_exact(["1"], "median")

    def test_no_answer_order_moves_min_or_max(self):
        """``nan`` has no place among numbers, so it folds as a word and
        every permutation of a pool holding it has one min and one max."""
        pool = ["3", "nan", "1", "inf", "abc", "10", "10.0"]
        for func, expected in (("min", "1"), ("max", "nan")):
            folds = {fold_exact(list(p), func) for p in permutations(pool)}
            assert folds == {expected}, func

    @given(
        st.lists(st.sampled_from(_POOL), min_size=1, max_size=8).flatmap(
            lambda pool: st.tuples(st.just(pool), st.permutations(pool))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_min_max_are_functions_of_the_answer_set(self, pools):
        pool, shuffled = pools
        for func in ("min", "max"):
            assert fold_exact(shuffled, func) == fold_exact(pool, func)


def _plan(values):
    return build_field_plan(
        "v",
        Counter(values),
        DeterministicRandom(b"aggregate-order!", "prop"),
        OrderPreservingEncryption(b"aggregate-ope-k!"),
    )


@given(st.sets(st.sampled_from(_POOL), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_server_order_is_refused_exactly_where_the_folds_disagree(values):
    """The server's min of two values is the one its plan ranks first;
    a plan is refused exactly when some pair folds otherwise exactly."""
    plan = _plan(sorted(values))
    rank = plan.ordered_values.index
    disagree = any(
        fold_exact([a, b], "min") != min(a, b, key=rank)
        for a, b in combinations(values, 2)
    )
    try:
        check_server_order("v", plan)
    except ValueError:
        assert disagree, plan.ordered_values
    else:
        assert not disagree, plan.ordered_values


@pytest.fixture
def system(healthcare_doc, healthcare_scs):
    return SecureXMLSystem.host(healthcare_doc, healthcare_scs, scheme="opt")


class TestExactMode:
    def test_count_matches_oracle(self, system, healthcare_doc):
        expected = len(evaluate(healthcare_doc, "//policy#"))
        assert system.aggregate("//policy#", "count") == expected

    def test_min_max_on_plaintext_field(self, system):
        assert system.aggregate("//patient/age", "min") == "35"
        assert system.aggregate("//patient/age", "max") == "40"

    def test_avg(self, system):
        assert system.aggregate("//patient/age", "avg") == 37.5

    def test_with_predicate(self, system):
        assert system.aggregate("//patient[pname='Matt']/age", "min") == "40"

    def test_empty_selection(self, system):
        assert system.aggregate("//nothing", "min") is None
        assert system.aggregate("//nothing", "count") == 0


class TestServerMode:
    def test_min_max_on_encrypted_field(self, system, healthcare_doc):
        """No-decryption MIN/MAX matches the exact pipeline."""
        covered = next(
            f for f in sorted(system.hosted.field_plans)
            if not f.startswith("@")
        )
        query = f"//{covered}"
        for func in ("min", "max"):
            exact = system.aggregate(query, func, mode="exact")
            server = system.aggregate(query, func, mode="server")
            assert server == exact, (func, covered)

    def test_min_max_on_plaintext_field_server_mode(self, system):
        assert system.aggregate("//patient/age", "min", mode="server") == "35"
        assert system.aggregate("//patient/age", "max", mode="server") == "40"

    def test_structural_restriction(self, system, healthcare_doc):
        # Only Betty's SSN qualifies structurally; under opt granularity
        # the server-side fold is exact.
        query = "//patient[age<36]//SSN"
        exact = system.aggregate(query, "max", mode="exact")
        server = system.aggregate(query, "max", mode="server")
        assert server == exact == "763895"

    def test_count_rejected_server_side(self, system):
        """The paper: COUNT cannot be evaluated without decryption."""
        with pytest.raises(ValueError):
            system.aggregate("//SSN", "count", mode="server")

    def test_unknown_mode_rejected(self, system):
        with pytest.raises(ValueError):
            system.aggregate("//SSN", "min", mode="magic")

    def test_empty_selection_server_mode(self, system):
        assert system.aggregate("//nothing", "min", mode="server") is None

    @pytest.mark.parametrize("kind", ["opt", "app"])
    def test_nasa_server_aggregates_match_exact(self, kind, nasa_doc, nasa_scs):
        system = SecureXMLSystem.host(nasa_doc, nasa_scs, scheme=kind)
        covered = [
            f for f in sorted(system.hosted.field_plans)
            if not f.startswith("@")
        ]
        for field in covered[:2]:
            for func in ("min", "max"):
                exact = system.aggregate(f"//{field}", func, mode="exact")
                server = system.aggregate(f"//{field}", func, mode="server")
                assert server == exact, (kind, field, func)


class TestServerModeNeedsAnExactJoin:
    """The server folds the join's output entries: a residual plan
    outputs the document root, a positional step's candidates are not
    pruned and an order edge's thresholds are relaxed, so each would fold
    values the query does not select."""

    @pytest.mark.parametrize(
        "query",
        [
            "//patient[1]/SSN",  # exact min 763895; the superset's 276543
            "//patient[pname='Matt']/SSN[2]",  # selects nothing
            "patient/SSN",  # relative: residual
            # Exact min None; the relaxed join's is Matt's own 40.
            "//patient[pname='Matt']/following-sibling::patient/age",
        ],
    )
    def test_refused(self, system, query):
        for func in ("min", "max"):
            with pytest.raises(ValueError, match=r"\(use mode='exact'\)$"):
                system.aggregate(query, func, mode="server")

    @pytest.mark.parametrize("scheme", ["opt", "app", "sub", "top"])
    def test_positional_nasa_query_is_refused(self, scheme):
        system = SecureXMLSystem.host(
            build_nasa_database(40, seed=6), nasa_constraints(), scheme=scheme
        )
        query = "//dataset[1]//last"
        assert system.aggregate(query, "min") == "Chandra"
        with pytest.raises(ValueError, match=r"\(use mode='exact'\)$"):
            system.aggregate(query, "min", mode="server")


def _brute_force(system, translated, func):
    """Fold every value-index entry of every matched block."""
    index = system.hosted.value_index
    result = match_pattern(translated, system.hosted.structural_index, index)
    blocks = {e.block_id for e in result.output_entries if e.block_id is not None}
    keys = [
        key
        for token in translated.output.keys
        if token in index.fields
        for key, block in index.fields[token].items()
        if block in blocks
    ]
    return (min if func == "min" else max)(keys, default=None)


@given(
    rows=st.lists(
        st.tuples(st.sampled_from(_POOL[:8]), st.booleans()),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=25, deadline=None)
def test_server_scan_equals_a_brute_force_fold(rows):
    """The scan stops at the first key whose run holds a matched block:
    the extreme it returns is the fold over all of them."""
    builder = TreeBuilder("r")
    for value, picked in rows:
        with builder.element("p"):
            builder.leaf("k", "y" if picked else "n")
            builder.leaf("v", value)
    system = SecureXMLSystem.host(
        builder.document(), parse_constraints(["//p/v"]), scheme="opt"
    )
    for query in ("//p[k='y']/v", "//p/v"):
        translated = system.client.translate(query)
        for func in ("min", "max"):
            reply = server_min_max(
                translated,
                system.hosted.structural_index,
                system.hosted.value_index,
                func,
            )
            assert reply.ciphertext == _brute_force(system, translated, func)


def test_server_scan_stops_at_the_extreme_key():
    """One person's card is found well before the field's last entry
    (XMark-200 ``creditcard`` holds 3 501)."""
    system = SecureXMLSystem.host(
        build_xmark_database(200), xmark_constraints(), scheme="opt"
    )
    token = system.hosted.field_tokens["creditcard"]
    assert len(system.hosted.value_index.fields[token]) == 3501
    translated = system.client.translate("//person[@id='person0']/creditcard")
    for func in ("min", "max"):
        reply = server_min_max(
            translated,
            system.hosted.structural_index,
            system.hosted.value_index,
            func,
        )
        assert reply.ciphertext is not None
        assert reply.scanned_entries < 3501, func


def _field_system(values):
    builder = TreeBuilder("r")
    for value in values:
        with builder.element("p"):
            builder.leaf("v", value)
    return SecureXMLSystem.host(
        builder.document(), parse_constraints(["//p/v"]), scheme="opt"
    )


class TestServerModeOrder:
    """The server's extreme is its plan's; the exact fold puts numbers
    first and orders them numerically.  They must agree or refuse."""

    @pytest.mark.parametrize(
        "values", [["10", "abc", "3"], ["abc", "inf"], ["b", "nan", "inf"]]
    )
    def test_a_field_of_numbers_and_words_is_refused(self, values):
        system = _field_system(values)
        for func in ("min", "max"):
            with pytest.raises(ValueError, match=r"\(use mode='exact'\)$"):
                system.aggregate("//p/v", func, mode="server")
        assert system.aggregate("//p/v", "min") == fold_exact(values, "min")

    @pytest.mark.parametrize(
        "values",
        [
            ["10", "9", "-3.5"],
            ["pear", "apple", "fig"],
            # nan ranks as a word in the plan and in the exact fold.
            ["zz", "nan", "b"],
        ],
    )
    def test_numbers_only_or_words_only_keep_server_mode(self, values):
        system = _field_system(values)
        for func in ("min", "max"):
            assert system.aggregate("//p/v", func, mode="server") == (
                system.aggregate("//p/v", func, mode="exact")
            )


class TestStrawmanHosting:
    """The §4.1 insecure mode: works functionally, fails the attack test."""

    def test_leaf_scheme_secure_hosting_exact(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="leaf"
        )
        answer = system.query("//patient[pname='Betty']//disease")
        assert sorted(answer.values()) == ["diarrhea", "diarrhea"]

    def test_insecure_hosting_still_answers_exactly(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="leaf", secure=False
        )
        answer = system.query("//treat[disease='leukemia']/doctor")
        assert answer.values() == ["Brown"]

    def test_insecure_hosting_has_no_decoys(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="leaf", secure=False
        )
        assert system.hosted.decoy_count == 0
        assert not system.hosted.secure

    def test_insecure_equal_leaves_collide(self, healthcare_doc, healthcare_scs):
        """Deterministic encryption: the two diarrhea blocks are identical."""
        from repro.security.attacks import ciphertext_block_histogram

        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="leaf", secure=False
        )
        token = system.hosted.field_tokens["disease"]
        histogram = ciphertext_block_histogram(system.hosted, token)
        assert sorted(histogram.values()) == [1, 2]  # plaintext profile leaks

    def test_secure_leaf_blocks_all_distinct(self, healthcare_doc, healthcare_scs):
        from repro.security.attacks import ciphertext_block_histogram

        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="leaf", secure=True
        )
        token = system.hosted.field_tokens["disease"]
        histogram = ciphertext_block_histogram(system.hosted, token)
        assert set(histogram.values()) == {1}
