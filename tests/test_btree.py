"""Unit and property tests for the B-tree value-index substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BTree


class TestBasics:
    def test_empty_tree(self):
        tree = BTree()
        assert len(tree) == 0
        assert tree.search(1) == []
        assert 1 not in tree
        assert list(tree.items()) == []

    def test_insert_and_search(self):
        tree = BTree(min_degree=2)
        tree.insert(5, "a")
        tree.insert(3, "b")
        tree.insert(7, "c")
        assert tree.search(3) == ["b"]
        assert 5 in tree
        assert tree.search(4) == []

    def test_duplicates_accumulate(self):
        tree = BTree(min_degree=2)
        for index in range(4):
            tree.insert(9, f"p{index}")
        assert tree.search(9) == ["p0", "p1", "p2", "p3"]
        assert len(tree) == 4
        assert tree.distinct_keys == 1

    def test_min_degree_validated(self):
        with pytest.raises(ValueError):
            BTree(min_degree=1)

    def test_min_max(self):
        tree = BTree(min_degree=2)
        for key in (9, 2, 14, 7):
            tree.insert(key, None)
        assert tree.min_key() == 2
        assert tree.max_key() == 14

    def test_min_max_empty_rejected(self):
        with pytest.raises(KeyError):
            BTree().min_key()
        with pytest.raises(KeyError):
            BTree().max_key()

    def test_splits_maintain_height_balance(self):
        tree = BTree(min_degree=2)
        for key in range(100):
            tree.insert(key, key)
        tree.check_invariants()
        assert tree.height() >= 3  # forced splits happened

    def test_node_count_grows(self):
        tree = BTree(min_degree=2)
        for key in range(50):
            tree.insert(key, key)
        assert tree.node_count() > 1


class TestRangeScan:
    @pytest.fixture
    def tree(self):
        tree = BTree(min_degree=3)
        for key in range(0, 100, 2):  # even keys only
            tree.insert(key, f"v{key}")
        return tree

    def test_inclusive_bounds(self, tree):
        keys = [k for k, _ in tree.range_scan(10, 20)]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_open_low(self, tree):
        keys = [k for k, _ in tree.range_scan(None, 6)]
        assert keys == [0, 2, 4, 6]

    def test_open_high(self, tree):
        keys = [k for k, _ in tree.range_scan(94, None)]
        assert keys == [94, 96, 98]

    def test_full_scan_sorted(self, tree):
        keys = [k for k, _ in tree.range_scan()]
        assert keys == sorted(keys) == list(range(0, 100, 2))

    def test_empty_range(self, tree):
        assert list(tree.range_scan(11, 11)) == []
        assert list(tree.range_scan(200, 300)) == []

    def test_duplicates_in_range(self):
        tree = BTree(min_degree=2)
        tree.insert(5, "x")
        tree.insert(5, "y")
        assert list(tree.range_scan(5, 5)) == [(5, "x"), (5, "y")]

    def test_keys_iterator_distinct(self, tree):
        tree.insert(10, "dup")
        assert list(tree.keys()) == list(range(0, 100, 2))


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(-1000, 1000), st.integers(0, 5)),
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_model(self, entries):
        """B-tree behaves exactly like a sorted multimap."""
        tree = BTree(min_degree=2)
        reference: dict[int, list[int]] = {}
        for key, payload in entries:
            tree.insert(key, payload)
            reference.setdefault(key, []).append(payload)

        tree.check_invariants()
        assert len(tree) == sum(len(v) for v in reference.values())
        assert tree.distinct_keys == len(reference)
        expected = [
            (key, payload)
            for key in sorted(reference)
            for payload in reference[key]
        ]
        assert list(tree.items()) == expected

    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=200),
        st.integers(0, 200),
        st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_scan_matches_filter(self, keys, low, high):
        low, high = min(low, high), max(low, high)
        tree = BTree(min_degree=3)
        for key in keys:
            tree.insert(key, key)
        got = [k for k, _ in tree.range_scan(low, high)]
        expected = sorted(k for k in keys if low <= k <= high)
        assert got == expected

    @given(st.integers(2, 6), st.lists(st.integers(0, 10_000), max_size=500))
    @settings(max_examples=25, deadline=None)
    def test_invariants_for_any_degree(self, degree, keys):
        tree = BTree(min_degree=degree)
        for key in keys:
            tree.insert(key, None)
        tree.check_invariants()


def _boundary_sizes(degree: int) -> list[int]:
    """Distinct-key counts either side of every height-1..3 capacity edge.

    A subtree of height ``h`` holds between ``t^h − 1`` and ``(2t)^h − 1``
    keys, so these are the counts where the bulk load changes height or
    runs a level at its minimum or maximum fill.
    """
    sizes = {0, 1, 2}
    for height in (1, 2, 3):
        for edge in (degree**height - 1, (2 * degree) ** height - 1):
            if edge <= 5000:
                sizes.update((edge - 1, edge, edge + 1))
    return sorted(size for size in sizes if size >= 0)


def _assert_same_tree_contents(bulk: BTree, looped: BTree, entries) -> None:
    bulk.check_invariants()
    assert list(bulk.items()) == list(looped.items()) == entries
    assert len(bulk) == len(looped)
    assert bulk.distinct_keys == looped.distinct_keys
    assert list(bulk.keys()) == list(looped.keys())


class TestBulkLoad:
    """``from_sorted`` is the insert loop, minus the per-entry descents."""

    @pytest.mark.parametrize("degree", [2, 3, 16])
    def test_every_capacity_boundary(self, degree):
        for size in _boundary_sizes(degree):
            entries = [(key, -key) for key in range(size)]
            looped = BTree(min_degree=degree)
            for key, payload in entries:
                looped.insert(key, payload)
            bulk = BTree.from_sorted(entries, min_degree=degree)
            _assert_same_tree_contents(bulk, looped, entries)
            if size:
                assert bulk.min_key() == 0 and bulk.max_key() == size - 1
            assert bulk.height() <= looped.height()

    @given(
        st.sampled_from([2, 3, 16]),
        st.lists(
            st.tuples(st.integers(0, 120), st.integers(0, 9)), max_size=400
        ),
        st.integers(-5, 125),
        st.integers(-5, 125),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_insert_loop(self, degree, entries, low, high):
        """Same ``items()`` (duplicates in arrival order), counts and scans."""
        entries.sort(key=lambda entry: entry[0])  # stable: payload order kept
        looped = BTree(min_degree=degree)
        for key, payload in entries:
            looped.insert(key, payload)
        bulk = BTree.from_sorted(entries, min_degree=degree)
        _assert_same_tree_contents(bulk, looped, entries)
        low, high = min(low, high), max(low, high)
        for bounds in ((low, high), (None, high), (low, None)):
            assert list(bulk.range_scan(*bounds)) == list(
                looped.range_scan(*bounds)
            )
        for key in (low, high, 60):
            assert bulk.search(key) == looped.search(key)

    def test_inserts_after_a_bulk_load_keep_the_invariants(self):
        tree = BTree.from_sorted([(key, 0) for key in range(0, 400, 2)], 2)
        for key in range(1, 400, 2):
            tree.insert(key, 1)
        tree.insert(10, 2)
        tree.check_invariants()
        assert list(tree.keys()) == list(range(400))
        assert tree.search(10) == [0, 2]

    def test_accepts_an_iterator(self):
        tree = BTree.from_sorted(iter([(1, "a"), (1, "b"), (2, "c")]))
        assert list(tree.items()) == [(1, "a"), (1, "b"), (2, "c")]

    def test_out_of_order_keys_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            BTree.from_sorted([(1, 0), (3, 0), (2, 0)])
        with pytest.raises(ValueError, match="out of order"):
            BTree.from_sorted([(1, 0), (2, 0), (1, 1)])

    def test_min_degree_validated(self):
        with pytest.raises(ValueError):
            BTree.from_sorted([], min_degree=1)


class TestRunLoad:
    """``from_runs`` takes each key's payloads as one run, already grouped."""

    @given(
        st.integers(2, 20),
        st.dictionaries(
            st.integers(-200, 200),
            st.lists(st.integers(0, 9), min_size=1, max_size=6),
            max_size=300,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_from_sorted_and_insert_loop(self, degree, by_key):
        keys = sorted(by_key)
        runs = [list(by_key[key]) for key in keys]
        entries = [(key, payload) for key in keys for payload in by_key[key]]
        looped = BTree(min_degree=degree)
        for key, payload in entries:
            looped.insert(key, payload)
        bulk = BTree.from_runs(keys, runs, min_degree=degree)
        _assert_same_tree_contents(bulk, looped, entries)
        assert list(BTree.from_sorted(entries, degree).items()) == entries
        assert bulk.distinct_keys == len(keys)

    def test_keys_out_of_order_or_repeated_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            BTree.from_runs([1, 3, 2], [[0], [0], [0]])
        with pytest.raises(ValueError, match="out of order"):
            BTree.from_runs([1, 1], [[0], [1]])
        with pytest.raises(ValueError, match="out of order"):
            BTree.from_runs([1, 2, 2, 3], [[0], [0], [0], [0]])

    def test_a_run_is_the_key_s_payload_list(self):
        tree = BTree.from_runs([1, 2], [["a", "b"], ["c"]], min_degree=2)
        tree.insert(1, "d")
        tree.check_invariants()
        assert tree.search(1) == ["a", "b", "d"]
        assert len(tree) == 4
