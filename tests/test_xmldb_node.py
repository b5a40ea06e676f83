"""Unit tests for the document tree model."""

import pytest

from repro.xmldb.node import (
    Attribute,
    Document,
    Element,
    EncryptedBlockNode,
    Text,
)
from repro.xmldb.parser import parse_fragment


def small_tree() -> Element:
    root = Element("a")
    b = root.append(Element("b"))
    b.append(Text("one"))
    c = root.append(Element("c"))
    c.append(Element("d"))
    root.set_attribute("x", "1")
    return root


class TestStructureMutation:
    def test_append_sets_parent(self):
        root = Element("a")
        child = root.append(Element("b"))
        assert child.parent is root
        assert root.children == [child]

    def test_append_rejects_attached_node(self):
        root = Element("a")
        child = root.append(Element("b"))
        other = Element("c")
        with pytest.raises(ValueError):
            other.append(child)

    def test_insert_at_position(self):
        root = Element("a")
        first = root.append(Element("b"))
        second = Element("c")
        root.insert(0, second)
        assert root.children == [second, first]

    def test_detach_removes_from_parent(self):
        root = small_tree()
        b = root.children[0]
        b.detach()
        assert b.parent is None
        assert all(child is not b for child in root.children)

    def test_detach_root_is_noop(self):
        root = Element("a")
        assert root.detach() is root

    def test_replace_with_swaps_in_place(self):
        root = small_tree()
        old = root.children[0]
        new = Element("z")
        old.replace_with(new)
        assert root.children[0] is new
        assert new.parent is root
        assert old.parent is None

    def test_replace_root_rejected(self):
        root = Element("a")
        with pytest.raises(ValueError):
            root.replace_with(Element("b"))

    def test_replace_with_attached_node_rejected(self):
        root = small_tree()
        other_root = Element("r")
        attached = other_root.append(Element("y"))
        with pytest.raises(ValueError):
            root.children[0].replace_with(attached)

    @pytest.mark.parametrize(
        "leaf",
        [Text("x"), Attribute("k", "v"), EncryptedBlockNode(1, b"\x00")],
        ids=lambda leaf: type(leaf).__name__,
    )
    def test_a_leaf_refuses_children_typed(self, leaf):
        """``serialize`` writes no child of a leaf, so an attached one
        would be lost without an error."""
        orphan = Element("lost")
        with pytest.raises(ValueError, match=type(leaf).__name__):
            leaf.append(orphan)
        with pytest.raises(ValueError, match=type(leaf).__name__):
            leaf.insert(0, orphan)
        assert orphan.parent is None
        assert leaf.children == ()


class TestNavigation:
    def test_depth(self):
        root = small_tree()
        d = root.children[1].children[0]
        assert root.depth == 0
        assert d.depth == 2

    def test_ancestors_order(self):
        root = small_tree()
        d = root.children[1].children[0]
        assert [a for a in d.ancestors()] == [root.children[1], root]

    def test_is_ancestor_of(self):
        root = small_tree()
        d = root.children[1].children[0]
        assert root.is_ancestor_of(d)
        assert not d.is_ancestor_of(root)
        assert not root.is_ancestor_of(root)

    def test_iter_preorder(self):
        root = small_tree()
        tags = [n.tag for n in root.iter() if isinstance(n, Element)]
        assert tags == ["a", "b", "c", "d"]

    def test_descendants_excludes_self(self):
        root = small_tree()
        assert root not in list(root.descendants())

    def test_sibling_axes(self):
        root = small_tree()
        b, c = root.children
        assert list(b.following_siblings()) == [c]
        assert list(c.preceding_siblings()) == [b]
        assert list(root.following_siblings()) == []

    def test_child_index(self):
        root = small_tree()
        assert root.children[1].child_index == 1
        assert root.child_index == 0


class TestContent:
    def test_leaf_element_detection(self):
        root = small_tree()
        b, c = root.children
        assert b.is_leaf_element
        assert not c.is_leaf_element
        assert not root.is_leaf_element

    def test_text_value_of_leaf(self):
        root = small_tree()
        assert root.children[0].text_value() == "one"

    def test_text_value_of_internal_is_none(self):
        root = small_tree()
        assert root.text_value() is None

    def test_attribute_value(self):
        root = small_tree()
        attribute = root.attribute("x")
        assert attribute is not None
        assert attribute.text_value() == "1"

    def test_set_attribute_overwrites(self):
        root = Element("a")
        root.set_attribute("k", "1")
        root.set_attribute("k", "2")
        assert len(root.attributes) == 1
        assert root.attribute("k").value == "2"

    def test_remove_attribute(self):
        root = Element("a")
        root.set_attribute("k", "1")
        root.remove_attribute("k")
        assert root.attribute("k") is None

    def test_no_attributes_is_the_shared_empty_tuple(self):
        """An attribute-less element costs the collector no list."""
        element = Element("a")
        shared = Element("b").attributes
        assert element.attributes is shared and shared == ()
        element.set_attribute("k", "1")
        element.set_attribute("j", "2")
        assert isinstance(element.attributes, list)
        element.remove_attribute("k")
        assert [a.name for a in element.attributes] == ["j"]
        element.remove_attribute("j")
        assert element.attributes is shared
        assert element.clone().attributes is shared
        assert parse_fragment("<a><b k='1'/></a>").attributes is shared

    def test_subtree_size(self):
        root = small_tree()
        assert root.subtree_size() == 5  # a, b, text, c, d (attr not counted)

    def test_empty_tag_rejected(self):
        with pytest.raises(ValueError):
            Element("")
        with pytest.raises(ValueError):
            Attribute("", "v")


class TestClone:
    def test_clone_is_deep_and_detached(self):
        root = small_tree()
        copy = root.clone()
        assert copy is not root
        assert copy.parent is None
        assert copy.children[0].text_value() == "one"
        copy.children[0].children[0].value = "changed"
        assert root.children[0].text_value() == "one"

    def test_clone_preserves_attributes(self):
        root = small_tree()
        copy = root.clone()
        assert copy.attribute("x").value == "1"

    def test_clone_parents_and_maps_every_copy(self):
        root = small_tree()
        mapping = {}
        copy = root.clone(mapping)
        attribute = copy.attribute("x")
        assert attribute.parent is copy
        assert attribute is not root.attribute("x")
        assert mapping[id(root.attribute("x"))] is attribute
        for original in root.iter():
            twin = mapping[id(original)]
            assert twin is not original and type(twin) is type(original)
            for child in twin.children:
                assert child.parent is twin

    def test_encrypted_block_clone(self):
        node = EncryptedBlockNode(3, b"\x01\x02")
        copy = node.clone()
        assert copy.block_id == 3 and copy.payload == b"\x01\x02"


class TestDocument:
    def test_renumber_assigns_document_order(self):
        doc = Document(small_tree())
        ids = [n.node_id for n in doc.iter_with_attributes()]
        assert ids == sorted(ids)
        assert ids[0] == 0

    def test_node_by_id_roundtrip(self):
        doc = Document(small_tree())
        for node in doc.iter_with_attributes():
            assert doc.node_by_id(node.node_id) is node

    def test_attributes_numbered_after_owner(self):
        doc = Document(small_tree())
        attr = doc.root.attribute("x")
        assert attr.node_id == doc.root.node_id + 1

    def test_size_counts_attributes(self):
        doc = Document(small_tree())
        assert doc.size() == 6  # 5 tree nodes + 1 attribute

    def test_leaves_yields_leaf_elements_and_attributes(self):
        doc = Document(small_tree())
        leaves = list(doc.leaves())
        kinds = {type(leaf).__name__ for leaf in leaves}
        assert kinds == {"Element", "Attribute"}

    def test_document_requires_element_root(self):
        with pytest.raises(TypeError):
            Document(Text("x"))

    def test_clone_preserves_numbering(self):
        doc = Document(small_tree())
        copy = doc.clone()
        original_ids = [n.node_id for n in doc.iter_with_attributes()]
        copy_ids = [n.node_id for n in copy.iter_with_attributes()]
        assert original_ids == copy_ids
