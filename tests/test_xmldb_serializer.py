"""Unit and property tests for serialization (round-trip with the parser)."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmldb.builder import TreeBuilder
from repro.xmldb.node import Document, Element, EncryptedBlockNode, Text
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize, serialized_size


class TestBasicSerialization:
    def test_empty_element(self):
        assert serialize(Element("a")) == "<a/>"

    def test_leaf_inline(self):
        leaf = Element("a")
        leaf.append(Text("v"))
        assert serialize(leaf) == "<a>v</a>"

    def test_attributes(self):
        el = Element("a")
        el.set_attribute("x", "1")
        assert serialize(el) == '<a x="1"/>'

    def test_escaping_text(self):
        leaf = Element("a")
        leaf.append(Text("<&>"))
        assert serialize(leaf) == "<a>&lt;&amp;&gt;</a>"

    def test_escaping_attribute_quotes(self):
        el = Element("a")
        el.set_attribute("x", 'say "hi" & go')
        assert '"say &quot;hi&quot; &amp; go"' in serialize(el)

    def test_encrypted_block(self):
        el = Element("a")
        el.append(EncryptedBlockNode(5, b"\xab\xcd"))
        assert (
            serialize(el)
            == '<a><EncryptedData block-id="5">abcd</EncryptedData></a>'
        )

    def test_document_serializes_root(self):
        doc = Document(Element("a"))
        assert serialize(doc) == "<a/>"

    def test_serialized_size_is_utf8_bytes(self):
        leaf = Element("a")
        leaf.append(Text("héllo"))
        assert serialized_size(leaf) == len(serialize(leaf).encode("utf-8"))

    def test_indent_mode_parses_back(self):
        builder = TreeBuilder("r")
        with builder.element("a"):
            builder.leaf("b", "x")
        doc = builder.document()
        pretty = serialize(doc, indent=True)
        assert "\n" in pretty
        reparsed = parse_document(pretty)
        assert serialize(reparsed) == serialize(doc)


# ---------------------------------------------------------------------------
# Property-based round-trip
# ---------------------------------------------------------------------------

_tags = st.from_regex(r"[A-Za-z][A-Za-z0-9_.#-]{0,8}", fullmatch=True)
_values = st.text(
    alphabet=st.characters(
        min_codepoint=32, max_codepoint=0x2FF, blacklist_characters="\x7f"
    ),
    min_size=1,
    max_size=12,
).map(str.strip).filter(bool)


@st.composite
def _elements(draw, depth: int = 0):
    element = Element(draw(_tags))
    for name in draw(st.lists(_tags, max_size=2, unique=True)):
        element.set_attribute(name, draw(_values))
    if depth < 3:
        children = draw(st.integers(min_value=0, max_value=3))
        for _ in range(children):
            if draw(st.booleans()) and not element.children:
                element.append(Text(draw(_values)))
            else:
                element.append(draw(_elements(depth=depth + 1)))
    return element


class TestRoundTripProperties:
    @given(_elements())
    @settings(max_examples=60, deadline=None)
    def test_parse_serialize_roundtrip(self, element):
        """parse(serialize(t)) == t up to whitespace normalization."""
        once = serialize(element)
        reparsed = parse_document(once)
        assert serialize(reparsed) == once

    @given(_elements())
    @settings(max_examples=30, deadline=None)
    def test_serialization_is_deterministic(self, element):
        assert serialize(element) == serialize(element)

    @given(_elements())
    @settings(max_examples=30, deadline=None)
    def test_clone_serializes_identically(self, element):
        assert serialize(element.clone()) == serialize(element)

    @given(_elements(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_pretty_minus_its_layout_is_the_compact_tree(self, element, blocks):
        """The two writers differ in whitespace between tags and in
        nothing else — blocks, attributes and inline leaf values included."""
        for block_id in range(blocks):
            element.append(EncryptedBlockNode(block_id, bytes([block_id, 0xAB])))
        compact = serialize(element)
        pretty = serialize(element, indent=True)
        assert pretty.endswith("\n") and "\n\n" not in pretty
        unlaid = re.sub(r">\s+<", "><", pretty.strip())
        assert serialize(parse_document(unlaid)) == compact
        assert serialize(parse_document(compact)) == compact
