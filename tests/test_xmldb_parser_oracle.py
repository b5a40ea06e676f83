"""The scanning parser against the recursive-descent parser it replaced.

``xml_parser_oracle`` is the old ``repro/xmldb/parser.py``.  Wherever it
returns a tree the scanner must return the same tree (compared node by
node, not through the serializer); wherever it raises ``XMLParseError``
so must the scanner; where it crashed untyped (deep nesting, malformed
character references) the scanner must raise ``XMLParseError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xml_parser_oracle as oracle
from decrypt_oracle import remove_decoys
from repro.core import client as client_module
from repro.core.decoy import DECOY_TAG
from repro.core.system import SecureXMLSystem
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.queries import QueryWorkload
from repro.workloads.xmark import build_xmark_database, xmark_constraints
from repro.xmldb.node import (
    Attribute,
    Element,
    EncryptedBlockNode,
    Text,
    iter_encrypted_blocks,
)
from repro.xmldb.parser import XMLParseError, block_placeholder, parse_fragment
from repro.xmldb.serializer import serialize


def _shape(node):
    """Everything the parser decides about one node, children excluded."""
    if isinstance(node, Element):
        assert all(
            isinstance(a, Attribute) and a.parent is node
            for a in node.attributes
        )
        return ("element", node.tag, [(a.name, a.value) for a in node.attributes])
    if isinstance(node, Text):
        return ("text", node.value)
    assert isinstance(node, EncryptedBlockNode)
    return ("block", node.block_id, node.payload)


def assert_same_tree(actual, expected):
    assert actual.parent is None
    pairs = [(actual, expected)]
    while pairs:
        a, e = pairs.pop()
        assert type(a) is type(e)
        assert _shape(a) == _shape(e)
        assert a.node_id == e.node_id == -1
        assert len(a.children) == len(e.children)
        for child in a.children:
            assert child.parent is a
        pairs.extend(zip(a.children, e.children))


def check_against_oracle(text):
    try:
        expected = oracle.parse_fragment(text)
    except XMLParseError:
        with pytest.raises(XMLParseError):
            parse_fragment(text)
    except (ValueError, RecursionError, OverflowError):
        # The oracle's untyped crashes: the scanner answers with a typed
        # error (or, for nesting within its bound, a tree).
        try:
            parse_fragment(text)
        except XMLParseError:
            pass
    else:
        assert_same_tree(parse_fragment(text), expected)


def check_decrypt_keywords_against_oracle(text):
    """``drop_tag`` + ``reject_blocks`` against parse → look → strip.

    The oracle side is what the client did with a block-free tree: parse,
    refuse if a block is left anywhere (the root included), walk again to
    detach the decoys.
    """
    def parse():
        return parse_fragment(text, drop_tag=DECOY_TAG, reject_blocks=True)

    try:
        expected = oracle.parse_fragment(text)
        unresolved = block_placeholder(expected) is not None or any(
            iter_encrypted_blocks(expected)
        )
    except XMLParseError:
        unresolved = True
    except (ValueError, RecursionError, OverflowError):
        try:
            parse()
        except XMLParseError:
            pass
        return
    if unresolved:
        with pytest.raises(XMLParseError):
            parse()
        return
    remove_decoys(expected)
    assert_same_tree(parse(), expected)


# ----------------------------------------------------------------------
# Generated documents
# ----------------------------------------------------------------------
_names = st.sampled_from(
    [
        "a", "b", "item", "policy#", "x:y", "_u", "né", "EncryptedData",
        "a-b.c", DECOY_TAG, DECOY_TAG,
    ]
)
_chars = st.text(
    alphabet=st.sampled_from(list("abc xyz01\n\t>'\"]é;#")), max_size=8
)
_references = st.sampled_from(
    ["&lt;", "&gt;", "&amp;", "&apos;", "&quot;", "&#65;", "&#x42;", "&#X43;"]
)
_space = st.sampled_from(["", " ", "\n ", "\t"])


@st.composite
def _attribute(draw):
    quote = draw(st.sampled_from("'\""))
    value = draw(
        st.lists(st.one_of(_chars, _references), max_size=3).map("".join)
    ).replace(quote, "")
    name = draw(st.sampled_from(["id", "block-id", "x:y", "k_1", "né"]))
    if name == "block-id":
        value = draw(st.sampled_from(["7", " 12", "+3", "x", ""]))
    return f"{draw(_space)}{name}{draw(_space)}={draw(_space)}{quote}{value}{quote}"


@st.composite
def _content(draw, depth):
    kinds = ["text", "reference", "cdata", "comment", "pi"]
    if depth < 4:
        kinds += ["element"] * 3
    pieces = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=5)):
        if kind == "text":
            pieces.append(draw(_chars))
        elif kind == "reference":
            pieces.append(draw(_references))
        elif kind == "cdata":
            pieces.append(f"<![CDATA[{draw(_chars)}<&]]>")
        elif kind == "comment":
            pieces.append(f"<!--{draw(_chars)}<-->")
        elif kind == "pi":
            pieces.append(f"<?pi {draw(_chars)}?>")
        else:
            pieces.append(draw(_element(depth + 1)))
    return "".join(pieces)


@st.composite
def _element(draw, depth=0):
    name = draw(_names)
    attributes = "".join(
        draw(st.lists(_attribute(), max_size=3, unique_by=lambda a: a.split("=")[0].strip()))
    )
    if name == "EncryptedData" and draw(st.booleans()):
        payload = draw(st.sampled_from(["0badc0de", "", " ff ", "zz", "abc"]))
        return f'<{name} block-id="{draw(st.integers(0, 99))}">{payload}</{name}>'
    if draw(st.integers(0, 4)) == 0:
        return f"<{name}{attributes}{draw(_space)}/>"
    body = draw(_content(depth))
    return f"<{name}{attributes}{draw(_space)}>{body}</{name}{draw(_space)}>"


_prolog = st.sampled_from(
    ["", '<?xml version="1.0"?>', "<!-- head -->\n", "<!DOCTYPE a>", " \n"]
)


@st.composite
def _documents(draw):
    return draw(_prolog) + draw(_element()) + draw(_prolog)


class TestGeneratedDocuments:
    @given(_documents())
    @settings(max_examples=300, deadline=None)
    def test_well_formed_documents_parse_to_the_same_tree(self, text):
        check_against_oracle(text)
        check_decrypt_keywords_against_oracle(text)

    @given(_documents(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_documents_fail_the_same_way(self, text, data):
        """Delete, duplicate or replace a slice: mostly malformed input."""
        start = data.draw(st.integers(0, len(text)))
        stop = data.draw(st.integers(start, min(len(text), start + 6)))
        patch = data.draw(
            st.sampled_from(["", "<", ">", "&", "/", '"', "=", "</a>", "<a", "1", "²"])
        )
        check_against_oracle(text[:start] + patch + text[stop:])
        check_decrypt_keywords_against_oracle(text[:start] + patch + text[stop:])

    @pytest.mark.parametrize(
        "text",
        [
            "<a x='1'y='2'/>",
            "<a>x<!-- c -->y<b/>z</a>",
            "<a><![CDATA[ ]]></a>",
            "<a> &#32; </a>",
            "<²/>",
            "<a ²='1'/>",
            "<a><1/></a>",
            "<a></ a>",
            "<a><!DOCTYPE b></a>",
            "<![CDATA[x]]><a/>",
            "<a><EncryptedData block-id='1'><b/></EncryptedData></a>",
            "<a><EncryptedData block-id='1_0'>00</EncryptedData></a>",
            "<a x='&lt' y=';'/>",
            "<a>&#+65;</a>",
            "<a>&toolongentityname;</a>",
            "<a x='<'/>",
            "<a x=\"1\" x='2'/>",
            "<a",
            "<a x",
            "<a x=",
            "<a x='1",
            "<a/><!-- tail",
            "<?xml",
            "<__decoy__>x</__decoy__>",
            "<__decoy__/>",
            "<a>v<__decoy__>x</__decoy__></a>",
            "<a>v<__decoy__/>w</a>",
            "<a> <__decoy__>x</__decoy__> </a>",
            "<a><__decoy__ k='1'>x</__decoy__><__decoy__ k='&bad;'/></a>",
            "<a><__decoy__ k='1' k='2'>x</__decoy__></a>",
            "<a><__decoy__><b>kept?</b><__decoy__>x</__decoy__></__decoy__></a>",
            "<a><__decoy__><EncryptedData block-id='1'>00</EncryptedData></__decoy__></a>",
            "<a><__decoy__x>kept</__decoy__x><x__decoy__/></a>",
            "<a><__decoy__>&amp;</__decoy__><__decoy__><![CDATA[<]]></__decoy__></a>",
            "<a><__decoy__>x</__decoy__ ></a>",
            "<EncryptedData block-id='1'>00</EncryptedData>",
            "<EncryptedData>00</EncryptedData>",
            "<a><EncryptedData>00</EncryptedData><EncryptedDataX block-id='1'/></a>",
            "<a><EncryptedData block-id=''/></a>",
        ],
    )
    def test_corner_cases(self, text):
        check_against_oracle(text)
        check_decrypt_keywords_against_oracle(text)


# ----------------------------------------------------------------------
# Every string the client parses on the three workloads
# ----------------------------------------------------------------------
WORKLOADS = {
    "healthcare": (build_healthcare_database, healthcare_constraints),
    "xmark": (lambda: build_xmark_database(25, seed=5), xmark_constraints),
    "nasa": (lambda: build_nasa_database(15, seed=5), nasa_constraints),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_fragments_and_plaintexts(workload, monkeypatch):
    build, constraints = WORKLOADS[workload]
    document = build()
    parsed: list[str] = []

    def recording(text, **keywords):
        parsed.append(text)
        return parse_fragment(text, **keywords)

    monkeypatch.setattr(client_module, "parse_fragment", recording)
    system = SecureXMLSystem.host(
        document, constraints(), scheme="opt"
    )
    try:
        queries = QueryWorkload(document, per_class=6).by_class()
        for query in sorted({q for qs in queries.values() for q in qs}):
            system.query(query)
        hosted_text = serialize(system.hosted.hosted_root)
    finally:
        system.close()
    # The client parses each fragment once, plaintexts already spliced in.
    assert len(parsed) > 10
    assert any(DECOY_TAG in text for text in parsed)
    assert not any("EncryptedData" in text for text in parsed)
    assert "EncryptedData" in hosted_text
    for text in {*parsed, hosted_text, serialize(document, indent=True)}:
        assert_same_tree(parse_fragment(text), oracle.parse_fragment(text))
        check_decrypt_keywords_against_oracle(text)
