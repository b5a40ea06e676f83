"""Tests for the stack-based structural join, cross-checked three ways."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsi import assign_intervals, build_structural_index
from repro.core.scheme import top_scheme
from repro.core.stack_join import join_children, join_descendants, stack_tree_desc
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
    def test_join_descendants_prunes_both_sides(self):
        index = build_index(build_healthcare_database())
        insurances = index.lookup("insurance")
        doctors = index.lookup("doctor")
        kept_a, kept_d = join_descendants(insurances, doctors)
        assert kept_a == [] and kept_d == []  # doctors aren't in insurance

        patients = index.lookup("patient")
        kept_a, kept_d = join_descendants(patients, doctors)
        assert len(kept_a) == 2 and len(kept_d) == 3

    def test_join_children_immediate_only(self):
        index = build_index(build_healthcare_database())
        hospital = index.lookup("hospital")
        diseases = index.lookup("disease")
        kept_parents, kept_children = join_children(hospital, diseases)
        assert kept_parents == [] and kept_children == []  # grandchildren

        treats = index.lookup("treat")
        kept_parents, kept_children = join_children(treats, diseases)
        assert len(kept_parents) == 3 and len(kept_children) == 3

    def test_grouped_entries_behave(self):
        """Sibling groups (top scheme) still join correctly."""
        document = build_healthcare_database()
        index = build_index(document, top_scheme)
        cipher = DeterministicTagCipher(b"j" * 32)
        patients = index.lookup(cipher.encrypt_tag("patient"))
        pnames = index.lookup(cipher.encrypt_tag("pname"))
        assert len(patients) == 1  # grouped pair
        kept_parents, kept_children = join_children(patients, pnames)
        assert len(kept_parents) == 1
        assert len(kept_children) == 2
