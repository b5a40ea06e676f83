"""Tests for the DSI structural index (§5.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsi import (
    Interval,
    assign_intervals,
    build_structural_index,
)
from repro.core.scheme import opt_scheme, top_scheme
from repro.core.system import SecureXMLSystem
from repro.crypto.prf import DeterministicRandom
from repro.crypto.vernam import DeterministicTagCipher
from repro.xmldb.node import Document, Element
from repro.xmldb.parser import parse_document


def weight_stream():
    return DeterministicRandom(b"w" * 16, "dsi")


class TestInterval:
    def test_strict_containment(self):
        outer = Interval(0.1, 0.9)
        inner = Interval(0.2, 0.8)
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert not outer.contains(outer)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Interval(0.5, 0.5)
        with pytest.raises(ValueError):
            Interval(0.7, 0.2)


class TestAssignIntervals:
    def test_root_gets_unit_interval(self, healthcare_doc):
        intervals = assign_intervals(healthcare_doc, weight_stream())
        root_interval = intervals[healthcare_doc.root.node_id]
        assert (root_interval.low, root_interval.high) == (0.0, 1.0)

    def test_children_strictly_nested_with_gaps(self, healthcare_doc):
        """The Figure 3 guarantees: containment, gaps, order."""
        intervals = assign_intervals(healthcare_doc, weight_stream())
        for element in healthcare_doc.elements():
            parent_interval = intervals[element.node_id]
            child_nodes = list(element.attributes) + [
                c for c in element.children if isinstance(c, Element)
            ]
            previous_high = None
            for child in child_nodes:
                child_interval = intervals[child.node_id]
                assert parent_interval.contains(child_interval)
                if previous_high is not None:
                    assert child_interval.low > previous_high  # gap
                previous_high = child_interval.high

    def test_ancestor_descendant_iff_containment(self, healthcare_doc):
        intervals = assign_intervals(healthcare_doc, weight_stream())
        elements = list(healthcare_doc.elements())
        for outer in elements:
            for inner in elements:
                if outer is inner:
                    continue
                geometric = intervals[outer.node_id].contains(
                    intervals[inner.node_id]
                )
                structural = outer.is_ancestor_of(inner)
                assert geometric == structural

    def test_attributes_indexed(self, healthcare_doc):
        intervals = assign_intervals(healthcare_doc, weight_stream())
        for element in healthcare_doc.elements():
            for attribute in element.attributes:
                assert attribute.node_id in intervals

    def test_weights_change_geometry_not_topology(self, healthcare_doc):
        one = assign_intervals(
            healthcare_doc, DeterministicRandom(b"a" * 16)
        )
        two = assign_intervals(
            healthcare_doc, DeterministicRandom(b"b" * 16)
        )
        assert one != two  # randomized gaps
        # but nesting structure is identical
        for element in healthcare_doc.elements():
            for child in element.children:
                if not isinstance(child, Element):
                    continue
                assert one[element.node_id].contains(one[child.node_id])
                assert two[element.node_id].contains(two[child.node_id])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_laminar_family_property(self, seed):
        """Any two intervals are nested or disjoint, never partial."""
        doc = parse_document(
            "<r><a><b>1</b><b>2</b></a><c><d><e>3</e></d></c></r>"
        )
        stream = DeterministicRandom(seed.to_bytes(16, "big"), "x")
        intervals = list(assign_intervals(doc, stream).values())
        for i, first in enumerate(intervals):
            for second in intervals[i + 1 :]:
                nested = (
                    first.contains(second)
                    or second.contains(first)
                    or first == second
                )
                disjoint = (
                    first.high < second.low or second.high < first.low
                )
                assert nested or disjoint


def build_index(document, scheme):
    intervals = assign_intervals(document, weight_stream())
    block_ids = {
        root_id: index + 1
        for index, root_id in enumerate(sorted(scheme.block_root_ids))
    }
    cipher = DeterministicTagCipher(b"t" * 32)
    index = build_structural_index(
        document, intervals, scheme.block_root_ids, block_ids, cipher.encrypt_tag
    )
    return index, cipher


def assert_children_are_parent_image(index):
    """Each entry's ``children`` is exactly the entries whose ``parent``
    it is — the relation the join reads upward for a child edge — and
    every ``parent`` is an entry of the index."""
    entries = index.all_entries()
    named: dict[int, list[int]] = {}
    for entry in entries:
        if entry.parent is not None:
            named.setdefault(id(entry.parent), []).append(id(entry))
    for entry in entries:
        children = sorted(map(id, entry.children))
        assert children == sorted(named.pop(id(entry), [])), entry.key
    assert not named, "a parent pointer names no entry of the index"


class TestStructuralIndexTable:
    def test_plaintext_tags_in_clear(self, healthcare_doc, healthcare_scs):
        index, _ = build_index(
            healthcare_doc, opt_scheme(healthcare_doc, healthcare_scs)
        )
        assert "patient" in index.table
        assert "hospital" in index.table

    def test_encrypted_tags_are_tokens(self, healthcare_doc, healthcare_scs):
        scheme = opt_scheme(healthcare_doc, healthcare_scs)
        index, cipher = build_index(healthcare_doc, scheme)
        assert "insurance" not in index.table
        assert cipher.encrypt_tag("insurance") in index.table
        assert cipher.encrypt_tag("policy#") in index.table

    def test_same_tag_same_token_across_blocks(
        self, healthcare_doc, healthcare_scs
    ):
        """Figure 4(b): U84573 lists intervals from several blocks."""
        scheme = opt_scheme(healthcare_doc, healthcare_scs)
        index, cipher = build_index(healthcare_doc, scheme)
        covered = sorted(scheme.covered_fields)[0]
        token = cipher.encrypt_tag(covered)
        entries = index.lookup(token)
        blocks = {entry.block_id for entry in entries}
        assert len(blocks) >= 2

    def test_grouping_merges_adjacent_same_tag_in_block(
        self, healthcare_doc, healthcare_scs
    ):
        """The two adjacent policy# leaves of one insurance block merge."""
        scheme = opt_scheme(healthcare_doc, healthcare_scs)
        index, cipher = build_index(healthcare_doc, scheme)
        token = cipher.encrypt_tag("policy#")
        entries = index.lookup(token)
        # 4 policy# nodes in 2 blocks -> 2 grouped entries of 2 members.
        assert len(entries) == 2
        assert all(len(entry.member_ids) == 2 for entry in entries)

    def test_plaintext_siblings_not_grouped(self, healthcare_doc, healthcare_scs):
        index, _ = build_index(
            healthcare_doc, opt_scheme(healthcare_doc, healthcare_scs)
        )
        treat_entries = index.lookup("treat")
        assert len(treat_entries) == 3  # adjacent but NOT encrypted
        assert all(len(e.member_ids) == 1 for e in treat_entries)

    def test_top_scheme_groups_adjacent_patients(
        self, healthcare_doc, healthcare_scs
    ):
        scheme = top_scheme(healthcare_doc)
        index, cipher = build_index(healthcare_doc, scheme)
        entries = index.lookup(cipher.encrypt_tag("patient"))
        assert len(entries) == 1
        assert len(entries[0].member_ids) == 2

    def test_block_table_representative_intervals(
        self, healthcare_doc, healthcare_scs
    ):
        scheme = opt_scheme(healthcare_doc, healthcare_scs)
        intervals = assign_intervals(healthcare_doc, weight_stream())
        index, _ = build_index(healthcare_doc, scheme)
        assert len(index.block_table) == len(scheme.block_root_ids)
        for root_id in scheme.block_root_ids:
            block_intervals = set(index.block_table.values())
            assert intervals[root_id] in block_intervals

    def test_parent_links_materialize_child_axis(
        self, healthcare_doc, healthcare_scs
    ):
        index, _ = build_index(
            healthcare_doc, opt_scheme(healthcare_doc, healthcare_scs)
        )
        hospital = index.lookup("hospital")[0]
        for patient in index.lookup("patient"):
            assert patient.parent is hospital
        for treat in index.lookup("treat"):
            assert treat.parent.key == "patient"

    def test_attribute_entries_child_of_owner(
        self, healthcare_doc, healthcare_scs
    ):
        scheme = opt_scheme(healthcare_doc, healthcare_scs)
        index, cipher = build_index(healthcare_doc, scheme)
        token = cipher.encrypt_tag("@coverage")
        entries = index.lookup(token)
        assert len(entries) == 2
        assert all(
            entry.parent.key == cipher.encrypt_tag("insurance")
            for entry in entries
        )

    def test_block_of_resolution(self, healthcare_doc, healthcare_scs):
        """An entry inside a block names it; a plaintext entry names none."""
        scheme = opt_scheme(healthcare_doc, healthcare_scs)
        index, cipher = build_index(healthcare_doc, scheme)
        policy_entry = index.lookup(cipher.encrypt_tag("policy#"))[0]
        assert policy_entry.block_id in index.block_table
        patient_entry = index.lookup("patient")[0]
        assert patient_entry.block_id is None

    @pytest.mark.parametrize("top", [False, True], ids=["opt", "top"])
    def test_children_are_the_entries_naming_their_parent(
        self, healthcare_doc, healthcare_scs, top
    ):
        scheme = (
            top_scheme(healthcare_doc)
            if top
            else opt_scheme(healthcare_doc, healthcare_scs)
        )
        index, _ = build_index(healthcare_doc, scheme)
        assert_children_are_parent_image(index)

    @pytest.mark.parametrize("corpus", ["xmark", "nasa"])
    def test_hosted_children_are_the_entries_naming_their_parent(
        self, corpus, request
    ):
        system = SecureXMLSystem.host(
            request.getfixturevalue(f"{corpus}_doc"),
            request.getfixturevalue(f"{corpus}_scs"),
            scheme="opt",
        )
        assert_children_are_parent_image(system.hosted.structural_index)

    def test_entries_sorted_by_low(self, healthcare_doc, healthcare_scs):
        index, _ = build_index(
            healthcare_doc, opt_scheme(healthcare_doc, healthcare_scs)
        )
        lows = [entry.interval.low for entry in index.all_entries()]
        assert lows == sorted(lows)


class TestIntervalUnderflowDiagnostic:
    def test_deep_chain_reports_depth_and_remedy(self):
        from repro.xmldb.node import Document, Element

        root = Element("chain")
        cursor = root
        for level in range(120):
            child = Element(f"level{level}")
            cursor.append(child)
            cursor = child
        document = Document(root)
        weights = DeterministicRandom(b"w" * 16, "dsi")
        with pytest.raises(ValueError) as excinfo:
            assign_intervals(document, weights)
        message = str(excinfo.value)
        assert "underflowed" in message
        assert "depth" in message
        assert "fanout" in message
        assert "bulk-load" in message
        assert "regroup" in message

    def test_shallow_document_is_fine(self, healthcare_doc):
        weights = DeterministicRandom(b"w" * 16, "dsi")
        intervals = assign_intervals(healthcare_doc, weights)
        assert intervals
