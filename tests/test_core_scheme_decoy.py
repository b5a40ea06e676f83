"""Tests for encryption schemes (§4, §7.1) and decoys (§4.1)."""

import pytest

from decrypt_oracle import remove_decoys
from repro.core.decoy import (
    DECOY_TAG,
    assert_no_reserved_tags,
    inject_decoys,
)
from repro.core.scheme import (
    app_scheme,
    build_scheme,
    opt_scheme,
    sub_scheme,
    top_scheme,
)
from repro.crypto.prf import DeterministicRandom
from repro.xmldb.node import Document, Element, Text
from repro.xmldb.parser import parse_document
from repro.xpath.evaluator import evaluate


class TestSchemeConstruction:
    def test_opt_covers_all_constraints(self, healthcare_doc, healthcare_scs):
        scheme = opt_scheme(healthcare_doc, healthcare_scs)
        roots = scheme.block_roots(healthcare_doc)
        tags = sorted({root.tag for root in roots})
        # insurance elements (node SC) plus one endpoint per association.
        assert "insurance" in tags
        assert scheme.covered_fields  # some cover was chosen

    def test_opt_encrypts_insurance_nodes(self, healthcare_doc, healthcare_scs):
        scheme = opt_scheme(healthcare_doc, healthcare_scs)
        insurance_nodes = evaluate(healthcare_doc, "//insurance")
        root_ids = scheme.block_root_ids
        assert all(node.node_id in root_ids for node in insurance_nodes)

    def test_cover_is_valid_for_associations(
        self, healthcare_doc, healthcare_scs
    ):
        scheme = opt_scheme(healthcare_doc, healthcare_scs)
        cover = scheme.covered_fields
        for constraint in healthcare_scs:
            if constraint.is_association:
                endpoints = {
                    constraint.endpoint_field(1),
                    constraint.endpoint_field(2),
                }
                assert endpoints & cover, str(constraint)

    def test_app_is_valid_cover_too(self, healthcare_doc, healthcare_scs):
        scheme = app_scheme(healthcare_doc, healthcare_scs)
        for constraint in healthcare_scs:
            if constraint.is_association:
                endpoints = {
                    constraint.endpoint_field(1),
                    constraint.endpoint_field(2),
                }
                assert endpoints & scheme.covered_fields

    def test_opt_size_at_most_app(self, healthcare_doc, healthcare_scs):
        optimal = opt_scheme(healthcare_doc, healthcare_scs)
        approximate = app_scheme(healthcare_doc, healthcare_scs)
        assert optimal.size(healthcare_doc) <= approximate.size(healthcare_doc)

    def test_sub_blocks_are_parents_of_opt(self, healthcare_doc, healthcare_scs):
        base = opt_scheme(healthcare_doc, healthcare_scs)
        parent = sub_scheme(healthcare_doc, healthcare_scs)
        parent_ids = parent.block_root_ids
        for root in base.block_roots(healthcare_doc):
            assert any(
                ancestor.node_id in parent_ids
                for ancestor in [root] + list(root.ancestors())
            )

    def test_top_is_single_root_block(self, healthcare_doc, healthcare_scs):
        scheme = top_scheme(healthcare_doc, healthcare_scs)
        assert scheme.block_root_ids == {healthcare_doc.root.node_id}

    def test_scheme_ordering_by_size(self, healthcare_doc, healthcare_scs):
        """|opt| <= |app| <= |top|: granularity monotonicity (§7.4)."""
        sizes = {
            kind: build_scheme(healthcare_doc, healthcare_scs, kind).size(
                healthcare_doc
            )
            for kind in ("opt", "app", "top")
        }
        assert sizes["opt"] <= sizes["app"] <= sizes["top"]

    def test_build_scheme_rejects_unknown(self, healthcare_doc, healthcare_scs):
        with pytest.raises(ValueError):
            build_scheme(healthcare_doc, healthcare_scs, "huge")

    def test_roots_normalized_no_nesting(self, healthcare_doc, healthcare_scs):
        for kind in ("opt", "app", "sub", "top"):
            scheme = build_scheme(healthcare_doc, healthcare_scs, kind)
            roots = scheme.block_roots(healthcare_doc)
            for root in roots:
                assert not any(
                    other is not root and other.is_ancestor_of(root)
                    for other in roots
                )

    def test_attribute_endpoint_encrypts_owner(self):
        doc = parse_document(
            "<r><item cost='5'><name>x</name></item>"
            "<item cost='6'><name>y</name></item></r>"
        )
        from repro.core.constraints import SecurityConstraint

        constraints = [SecurityConstraint.parse("//item:(/name, /@cost)")]
        scheme = opt_scheme(doc, constraints)
        roots = scheme.block_roots(doc)
        assert all(root.tag in ("name", "item") for root in roots)


class TestDecoys:
    def _stream(self):
        return DeterministicRandom(b"d" * 16, "test")

    def test_decoy_added_to_each_leaf(self):
        root = parse_document(
            "<treat><disease>flu</disease><doctor>Who</doctor></treat>"
        ).root
        count = inject_decoys(root, self._stream())
        assert count == 2
        for leaf_tag in ("disease", "doctor"):
            leaf = next(root.find_elements(leaf_tag))
            decoy_children = [
                c for c in leaf.children
                if isinstance(c, Element) and c.tag == DECOY_TAG
            ]
            assert len(decoy_children) == 1

    def test_leafless_block_gets_one_decoy(self):
        root = Element("empty")
        count = inject_decoys(root, self._stream())
        assert count == 1
        assert root.children[0].tag == DECOY_TAG

    def test_decoys_are_random_values(self):
        first = Element("a")
        first.append(Text("v"))
        wrapper = Element("w")
        wrapper.append(first)
        second = wrapper.clone()
        stream = self._stream()
        inject_decoys(wrapper, stream)
        inject_decoys(second, stream)
        decoy_1 = next(wrapper.find_elements(DECOY_TAG)).text_value()
        decoy_2 = next(second.find_elements(DECOY_TAG)).text_value()
        assert decoy_1 != decoy_2  # stream advances: same subtree, new salt

    def test_remove_decoys_restores_leaves(self):
        root = parse_document(
            "<treat><disease>flu</disease><doctor>Who</doctor></treat>"
        ).root
        original = [n.text_value() for n in root.children]
        inject_decoys(root, self._stream())
        assert root.children[0].text_value() is None  # no longer simple leaf
        removed = remove_decoys(root)
        assert removed == 2
        assert [n.text_value() for n in root.children] == original

    def test_reserved_tag_guard(self):
        doc = Document(Element(DECOY_TAG))
        with pytest.raises(ValueError):
            assert_no_reserved_tags(doc)

    def test_decoy_roundtrip_via_serialization(self):
        from repro.xmldb.parser import parse_fragment
        from repro.xmldb.serializer import serialize

        root = parse_document("<a><b>v</b></a>").root
        inject_decoys(root, self._stream())
        reparsed = parse_fragment(serialize(root))
        remove_decoys(reparsed)
        assert serialize(reparsed) == "<a><b>v</b></a>"
        # What the client does: the parse itself leaves the decoys out.
        dropped = parse_fragment(serialize(root), drop_tag=DECOY_TAG)
        assert serialize(dropped) == "<a><b>v</b></a>"
