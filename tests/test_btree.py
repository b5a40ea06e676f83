"""Unit and property tests for the value index's sorted runs (``KeyRuns``).

The value index was a B-tree before it became key-ordered runs; these
checks keep the names they had then, ported to what the runs still do:
duplicates under one key in arrival order, inclusive range scans, and the
refusal of keys out of order.  An insert loop is now one ``insort`` per
entry into a plain list — an independent slow path to hold the runs to.
"""

from bisect import insort
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.opess import KeyRuns


def _insert_loop(entries):
    """The entries as one stable ``insort`` each: key order, arrival order
    within a key."""
    looped: list = []
    for entry in entries:
        insort(looped, entry, key=itemgetter(0))
    return looped


class TestBasics:
    def test_duplicates_accumulate(self):
        index = KeyRuns.from_sorted([(9, f"p{i}") for i in range(4)])
        assert list(index.range_scan(9, 9)) == [
            (9, "p0"), (9, "p1"), (9, "p2"), (9, "p3")
        ]
        assert len(index) == 4
        assert index.keys == [9]


class TestRangeScan:
    @pytest.fixture
    def index(self):
        # even keys only
        return KeyRuns.from_sorted((key, f"v{key}") for key in range(0, 100, 2))

    def test_inclusive_bounds(self, index):
        keys = [k for k, _ in index.range_scan(10, 20)]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_full_scan_sorted(self, index):
        keys = [k for k, _ in index.items()]
        assert keys == sorted(keys) == list(range(0, 100, 2))
        assert list(index.range_scan(0, 98)) == list(index.items())

    def test_empty_range(self, index):
        assert list(index.range_scan(11, 11)) == []
        assert list(index.range_scan(200, 300)) == []
        assert list(index.range_scan(20, 10)) == []

    def test_duplicates_in_range(self):
        index = KeyRuns.from_sorted([(5, "x"), (5, "y")])
        assert list(index.range_scan(5, 5)) == [(5, "x"), (5, "y")]

    def test_keys_iterator_distinct(self, index):
        entries = _insert_loop([*index.items(), (10, "dup")])
        assert KeyRuns.from_sorted(entries).keys == list(range(0, 100, 2))


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(-1000, 1000), st.integers(0, 5)),
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_model(self, entries):
        """The runs behave exactly like a sorted multimap."""
        index = KeyRuns.from_sorted(_insert_loop(entries))
        reference: dict[int, list[int]] = {}
        for key, payload in entries:
            reference.setdefault(key, []).append(payload)

        assert len(index) == sum(len(v) for v in reference.values())
        assert len(index.keys) == len(reference)
        expected = [
            (key, payload)
            for key in sorted(reference)
            for payload in reference[key]
        ]
        assert list(index.items()) == expected

    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=200),
        st.integers(0, 200),
        st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_scan_matches_filter(self, keys, low, high):
        low, high = min(low, high), max(low, high)
        index = KeyRuns.from_sorted((key, key) for key in sorted(keys))
        got = [k for k, _ in index.range_scan(low, high)]
        expected = sorted(k for k in keys if low <= k <= high)
        assert got == expected


class TestBulkLoad:
    """``from_sorted`` is the insert loop, grouped into runs."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 120), st.integers(0, 9)), max_size=400
        ),
        st.integers(-5, 125),
        st.integers(-5, 125),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_insert_loop(self, entries, low, high):
        """Same ``items()`` (duplicates in arrival order), counts and scans."""
        looped = _insert_loop(entries)
        entries.sort(key=itemgetter(0))  # stable: payload order kept
        bulk = KeyRuns.from_sorted(entries)
        assert list(bulk.items()) == looped == entries
        assert len(bulk) == len(looped)
        assert bulk.keys == sorted({key for key, _ in looped})
        low, high = min(low, high), max(low, high)
        assert list(bulk.range_scan(low, high)) == [
            (key, payload) for key, payload in looped if low <= key <= high
        ]
        for key in (low, high, 60):
            assert list(bulk.range_scan(key, key)) == [
                entry for entry in looped if entry[0] == key
            ]

    def test_out_of_order_keys_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            KeyRuns.from_sorted([(1, 0), (3, 0), (2, 0)])
        with pytest.raises(ValueError, match="out of order"):
            KeyRuns.from_sorted([(1, 0), (2, 0), (1, 1)])


class TestRunLoad:
    """The constructor takes each key's payloads as one run, already grouped."""

    @given(
        st.dictionaries(
            st.integers(-200, 200),
            st.lists(st.integers(0, 9), min_size=1, max_size=6),
            max_size=300,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_from_sorted_and_insert_loop(self, by_key):
        keys = sorted(by_key)
        runs = [list(by_key[key]) for key in keys]
        entries = [(key, payload) for key in keys for payload in by_key[key]]
        index = KeyRuns(keys, runs)
        assert list(index.items()) == entries == _insert_loop(entries)
        assert list(KeyRuns.from_sorted(entries).items()) == entries
        assert len(index) == len(entries)
        assert len(index.keys) == len(keys)

    def test_keys_out_of_order_or_repeated_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            KeyRuns([1, 3, 2], [[0], [0], [0]])
        with pytest.raises(ValueError, match="out of order"):
            KeyRuns([1, 1], [[0], [1]])
        with pytest.raises(ValueError, match="out of order"):
            KeyRuns([1, 2, 2, 3], [[0], [0], [0], [0]])

    def test_a_run_is_the_key_s_payload_list(self):
        index = KeyRuns([1, 2], [["a", "b"], ["c"]])
        assert list(index.range_scan(1, 1)) == [(1, "a"), (1, "b")]
        assert index.runs == [["a", "b"], ["c"]]
        assert len(index) == 3
