"""Tests for the stack-based structural join, cross-checked three ways."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsi import assign_intervals, build_structural_index
from repro.core.scheme import top_scheme
from repro.core.stack_join import stack_tree_desc
from repro.crypto.prf import DeterministicRandom
from repro.crypto.vernam import DeterministicTagCipher
from repro.workloads.healthcare import build_healthcare_database
from repro.workloads.nasa import build_nasa_database


def build_index(document, scheme_factory=None):
    document.renumber()
    intervals = assign_intervals(
        document, DeterministicRandom(b"j" * 16, "join")
    )
    if scheme_factory is None:
        block_root_ids = frozenset()
        block_ids = {}
    else:
        scheme = scheme_factory(document)
        block_root_ids = scheme.block_root_ids
        block_ids = {
            root_id: index + 1
            for index, root_id in enumerate(sorted(block_root_ids))
        }
    cipher = DeterministicTagCipher(b"j" * 32)
    return build_structural_index(
        document, intervals, block_root_ids, block_ids, cipher.encrypt_tag
    )


def nested_loop_desc(ancestors, descendants):
    return [
        (a, d)
        for d in descendants
        for a in ancestors
        if a.interval.contains(d.interval)
    ]


class TestStackTreeDesc:
    def test_matches_nested_loop_on_healthcare(self):
        index = build_index(build_healthcare_database())
        patients = index.lookup("patient")
        diseases = index.lookup("disease")
        got = set(
            (id(a), id(d)) for a, d in stack_tree_desc(patients, diseases)
        )
        expected = set(
            (id(a), id(d)) for a, d in nested_loop_desc(patients, diseases)
        )
        assert got == expected
        assert len(got) == 3  # Betty 2 diseases, Matt 1

    def test_no_pairs_for_disjoint_lists(self):
        index = build_index(build_healthcare_database())
        ssn = index.lookup("SSN")
        ages = index.lookup("age")
        assert stack_tree_desc(ssn, ages) == []

    def test_self_join_excludes_self(self):
        index = build_index(build_healthcare_database())
        treats = index.lookup("treat")
        assert stack_tree_desc(treats, treats) == []  # strict containment

    def test_nested_same_tag(self):
        from repro.xmldb.parser import parse_document

        index = build_index(
            parse_document("<r><a><a><a>x</a></a></a></r>")
        )
        entries = index.lookup("a")
        pairs = stack_tree_desc(entries, entries)
        # outer⊃middle, outer⊃inner, middle⊃inner.
        assert len(pairs) == 3

    @given(st.integers(min_value=5, max_value=60))
    @settings(max_examples=15, deadline=None)
    def test_matches_nested_loop_on_generated(self, dataset_count):
        index = build_index(build_nasa_database(dataset_count // 5 + 1, seed=4))
        datasets = index.lookup("dataset")
        lasts = index.lookup("last")
        got = set(
            (id(a), id(d)) for a, d in stack_tree_desc(datasets, lasts)
        )
        expected = set(
            (id(a), id(d)) for a, d in nested_loop_desc(datasets, lasts)
        )
        assert got == expected


class TestSemiJoins:
    def test_grouped_entries_behave(self):
        """Sibling groups (top scheme) still join correctly."""
        document = build_healthcare_database()
        index = build_index(document, top_scheme)
        cipher = DeterministicTagCipher(b"j" * 32)
        patients = index.lookup(cipher.encrypt_tag("patient"))
        pnames = index.lookup(cipher.encrypt_tag("pname"))
        assert len(patients) == 1  # grouped pair
        pairs = stack_tree_desc(patients, pnames)
        children = [d for a, d in pairs if d.parent is a]
        assert {id(a) for a, _ in pairs} == {id(patients[0])}
        assert len(children) == 2
