"""Unit tests for the XML parser."""

import pytest

from repro.xmldb.node import Element, EncryptedBlockNode
from repro.xmldb.parser import (
    MAX_DEPTH,
    XMLParseError,
    parse_document,
    parse_fragment,
)


class TestBasicParsing:
    def test_single_element(self):
        doc = parse_document("<a/>")
        assert doc.root.tag == "a"
        assert doc.root.children == []

    def test_nested_elements(self):
        doc = parse_document("<a><b><c/></b></a>")
        assert doc.root.children[0].children[0].tag == "c"

    def test_text_content(self):
        doc = parse_document("<a>hello</a>")
        assert doc.root.text_value() == "hello"

    def test_text_whitespace_stripped(self):
        doc = parse_document("<a>\n   hello  \n</a>")
        assert doc.root.text_value() == "hello"

    def test_whitespace_only_text_dropped(self):
        doc = parse_document("<a>\n  <b>x</b>\n</a>")
        assert len(doc.root.children) == 1

    def test_attributes(self):
        doc = parse_document('<a x="1" y="two"/>')
        assert doc.root.attribute("x").value == "1"
        assert doc.root.attribute("y").value == "two"

    def test_single_quoted_attribute(self):
        doc = parse_document("<a x='1'/>")
        assert doc.root.attribute("x").value == "1"

    def test_hash_in_tag_name(self):
        # The paper's Figure 2 uses tags like policy#.
        doc = parse_document("<insurance><policy#>34221</policy#></insurance>")
        assert doc.root.children[0].tag == "policy#"

    def test_mixed_children_order_preserved(self):
        doc = parse_document("<a><b/>text<c/></a>")
        kinds = [type(child).__name__ for child in doc.root.children]
        assert kinds == ["Element", "Text", "Element"]


class TestEntitiesAndSections:
    def test_predefined_entities(self):
        doc = parse_document("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert doc.root.text_value() == "<>&'\""

    def test_numeric_entities(self):
        doc = parse_document("<a>&#65;&#x42;</a>")
        assert doc.root.text_value() == "AB"

    def test_entity_in_attribute(self):
        doc = parse_document('<a x="a&amp;b"/>')
        assert doc.root.attribute("x").value == "a&b"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLParseError):
            parse_document("<a>&bogus;</a>")

    def test_cdata(self):
        doc = parse_document("<a><![CDATA[<not & parsed>]]></a>")
        assert doc.root.text_value() == "<not & parsed>"

    def test_comments_skipped(self):
        doc = parse_document("<!-- head --><a><!-- in -->x</a><!-- tail -->")
        assert doc.root.text_value() == "x"

    def test_declaration_and_doctype_skipped(self):
        doc = parse_document(
            '<?xml version="1.0"?><!DOCTYPE a><a>x</a>'
        )
        assert doc.root.text_value() == "x"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a x=1/>",
            '<a x="1" x="2"/>',
            "<a/><b/>",
            "<a>&unterminated",
            "<a><!-- unclosed </a>",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(XMLParseError):
            parse_document(bad)

    def test_error_carries_position(self):
        with pytest.raises(XMLParseError) as info:
            parse_document("<a></b>")
        assert info.value.position > 0


class TestEncryptedBlocks:
    def test_placeholder_reconstructed(self):
        doc = parse_document(
            '<a><EncryptedData block-id="7">0badc0de</EncryptedData></a>'
        )
        block = doc.root.children[0]
        assert isinstance(block, EncryptedBlockNode)
        assert block.block_id == 7
        assert block.payload == bytes.fromhex("0badc0de")

    def test_root_placeholder_left_as_element(self):
        # The client unwraps a root-level block itself.
        root = parse_fragment(
            '<EncryptedData block-id="1">aa</EncryptedData>'
        )
        assert isinstance(root, Element)
        assert root.tag == "EncryptedData"

    def test_encrypted_data_without_block_id_is_plain_element(self):
        doc = parse_document("<a><EncryptedData>q</EncryptedData></a>")
        assert isinstance(doc.root.children[0], Element)


class TestFragment:
    def test_fragment_has_no_numbering(self):
        root = parse_fragment("<a><b>x</b></a>")
        assert root.node_id == -1

    def test_fragment_rejects_trailing(self):
        with pytest.raises(XMLParseError):
            parse_fragment("<a/>junk")


class TestHostileInput:
    """Bytes from disk or the untrusted server: a typed error, never a crash."""

    def test_nesting_beyond_the_bound_is_a_parse_error(self):
        # Used to escape as RecursionError, past load_system's handler.
        with pytest.raises(XMLParseError) as info:
            parse_fragment("<a>" * 3000 + "</a>" * 3000)
        assert info.value.position == 3 * MAX_DEPTH

    def test_nesting_up_to_the_bound_parses(self):
        root = parse_fragment("<a>" * MAX_DEPTH + "x" + "</a>" * MAX_DEPTH)
        depth, node = 0, root
        while isinstance(node, Element):
            depth, node = depth + 1, node.children[0]
        assert depth == MAX_DEPTH and node.value == "x"
        root.clone()  # the recursive consumers cope with the bound

    @pytest.mark.parametrize(
        "reference", ["&#xZZ;", "&#1114112;", "&#;", "&#x;", "&#-5;"]
    )
    def test_malformed_character_reference_has_a_position(self, reference):
        # Used to be a bare ValueError from int()/chr(), with no offset.
        for text, offset in ((f"<a>ok{reference}</a>", 5), (f"<a x='{reference}'/>", 2)):
            with pytest.raises(XMLParseError) as info:
                parse_fragment(text)
            assert info.value.position == offset

    def test_malformed_block_is_a_parse_error(self):
        for text in (
            '<a><EncryptedData block-id="x">00</EncryptedData></a>',
            '<a><EncryptedData block-id="1">zz</EncryptedData></a>',
        ):
            with pytest.raises(XMLParseError):
                parse_fragment(text)
