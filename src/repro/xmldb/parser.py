"""A scanning XML parser for the document model.

The parser accepts the XML subset the reproduction needs: prolog, comments,
CDATA sections, elements with attributes, character data with the five
predefined entities and numeric character references.  It intentionally does
not implement DTDs, namespaces-as-scoping or processing-instruction
semantics — none of which appear in the paper's datasets.

Round-tripping of hosted databases is supported: the serializer encodes an
:class:`~repro.xmldb.node.EncryptedBlockNode` as an ``EncryptedData`` element
(mirroring the W3C XML-Encryption wire shape the paper cites in §7.4), and
the parser rebuilds the placeholder when such an element closes.

Every shipped fragment and every decrypted block goes through here, so the
parser is a compiled-regex token scanner driving an explicit element stack
rather than a per-character recursive descent: one ``match`` per tag (a leaf
``<t>text</t>`` is a single token), no Python frame per nesting level.
Input comes from disk and from the untrusted server, so every rejection is
an :class:`XMLParseError` carrying an offset — including malformed character
references and nesting beyond :data:`MAX_DEPTH`.
"""

from __future__ import annotations

import re

from repro.xmldb.node import Attribute, Document, Element, EncryptedBlockNode, Node, Text

#: Tag used to serialize encrypted-block placeholders (see serializer.py).
ENCRYPTED_DATA_TAG = "EncryptedData"

#: Deepest element nesting accepted.  The tree consumers (``clone``,
#: ``serialize``) recurse once per level, so a document the parser let
#: through at interpreter-stack depth would crash them untyped; the paper's
#: datasets nest fewer than ten levels.
MAX_DEPTH = 256

_ENTITY_MAP = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

# '#' is admitted in names because the paper's running example uses tags
# like "policy#" (Figure 2).  ``[^\W\d]`` is "letter or underscore" up to a
# few non-decimal numerics (``²``), which :func:`_check_name` rejects.  The
# lookahead stops the scanner from backtracking into a name (``<aid=''/>``
# is not ``<a id=''/>``).
_NAME = r"(?:[^\W\d]|:)[\w:.\-#]*(?![\w:.\-#])"
_VALUE = r"""(?:"[^"<]*"|'[^'<]*')"""

# A comment or processing instruction ends at the first terminator at or
# after its own opener, so ``<!-->`` and ``<?>`` are complete (as they
# always were here).
_COMMENT = r"<!(?=--).*?-->"
_INSTRUCTION = r"<(?=\?).*?\?>"

_MISC = re.compile(
    rf"(?:\s+|{_INSTRUCTION}|{_COMMENT}|<!DOCTYPE[^>]*>)*", re.DOTALL
)
_OPEN_RE = re.compile(rf"<({_NAME})")
_ATTRIBUTE_RE = re.compile(rf"""\s*({_NAME})\s*=\s*(?:"([^"<]*)"|'([^'<]*)')""")
_REFERENCE = r"&([^;]{0,10});"
_REFERENCE_RE = re.compile(_REFERENCE)
_SPACE_RE = re.compile(r"\s*")
_ATTRIBUTE_NAME_RE = re.compile(rf"{_NAME}\s*")
_TOKEN = re.compile(
    # 1 name, 2 attributes, 3 '/' of an empty-element tag, 4 the text of a
    # leaf whose matching close tag follows directly
    rf"<({_NAME})((?:\s*{_NAME}\s*=\s*{_VALUE})*)\s*"
    r"(?:(/)>|>(?:([^<&]*)</\1\s*>)?)"
    rf"|</({_NAME})\s*>"            # 5 close tag
    r"|([^<&]+)"                    # 6 character data
    rf"|{_REFERENCE}"               # 7 reference
    r"|<!\[CDATA\[(.*?)\]\]>"       # 8 CDATA section
    rf"|{_COMMENT}|{_INSTRUCTION}",  # skipped
    re.DOTALL,
)


class XMLParseError(ValueError):
    """Raised when the input is not well-formed for our XML subset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def parse_document(text: str) -> Document:
    """Parse a complete XML document string into a :class:`Document`."""
    return Document(parse_fragment(text))


def parse_fragment(
    text: str, *, drop_tag: "str | None" = None, reject_blocks: bool = False
) -> Element:
    """Parse a single-rooted XML fragment into an (unnumbered) element tree.

    The keywords serve the client's decrypt stage, whose text has plaintext
    where the blocks were: ``drop_tag`` (the decoy tag) names an element to
    leave out wherever it closes below the root — an attribute-less leaf of
    it is skipped before a node is built — and ``reject_blocks`` makes an
    ``EncryptedData`` element with a ``block-id``, the root included, an
    error instead of a placeholder.
    """
    pos = _MISC.match(text).end()
    if not text.startswith("<", pos):
        raise _prolog_error(text, pos, "expected root element")

    match_token = _TOKEN.match
    #: open elements, innermost last
    stack: list[Element] = []
    #: character data of the innermost open element since its last child
    pieces: list[str] = []
    element: "Element | None" = None
    root: "Node | None" = None

    while root is None:
        token = match_token(text, pos)
        if token is None:
            raise _token_error(text, pos, element)
        index = token.lastindex
        if index is None:  # comment or processing instruction
            pos = token.end()
            continue
        if index <= 4:
            name, attributes, empty, leaf_text = token.group(1, 2, 3, 4)
            if not name.isascii():
                _check_name(name, pos + 1)
            if pieces:
                _flush_text(element, pieces)
            if (
                name == drop_tag
                and not attributes
                and (empty is not None or leaf_text is not None)
                and element is not None
            ):
                pos = token.end()
                continue
            node = Element(name)
            if attributes:
                _set_attributes(node, attributes, token.start(2))
            if empty is None and leaf_text is None:
                if len(stack) >= MAX_DEPTH:
                    raise XMLParseError(
                        f"elements nested deeper than {MAX_DEPTH}", pos
                    )
                stack.append(node)
                element = node
                pos = token.end()
                continue
            if leaf_text:
                leaf_text = leaf_text.strip()
                if leaf_text:
                    _attach(node, Text(leaf_text))
        elif index == 5:
            if element is None or token.group(5) != element.tag:
                raise XMLParseError(
                    f"mismatched closing tag </{token.group(5)}>"
                    + (f" for <{element.tag}>" if element is not None else ""),
                    pos + 2,
                )
            if pieces:
                _flush_text(element, pieces)
            node = stack.pop()
            element = stack[-1] if stack else None
        else:
            if element is None:
                raise XMLParseError("expected root element", pos)
            if index == 7:
                pieces.append(_decode_reference(token.group(7), pos))
            else:  # character data or CDATA
                pieces.append(token.group(index))
            pos = token.end()
            continue

        # ``node`` is complete: hand it to its parent, or finish.
        pos = token.end()
        tag = node.tag
        if tag == ENCRYPTED_DATA_TAG:
            if reject_blocks:
                if node.attribute("block-id") is not None:
                    raise XMLParseError(
                        "unresolved encrypted block", token.start()
                    )
            elif element is not None:
                node = block_placeholder(node, token.start()) or node
        if element is None:
            root = node
        elif tag != drop_tag:
            _attach(element, node)

    end = _MISC.match(text, pos).end()
    if end != len(text):
        raise _prolog_error(text, end, "trailing content after root element")
    return root


# ----------------------------------------------------------------------
# Node construction, as ``Element.clone`` does it: slots are filled
# directly, bypassing ``append`` and ``set_attribute``, because the scanner
# already guarantees what they check (unparented nodes, distinct names).
# An element's attribute list is created here, only when it has one.
# ----------------------------------------------------------------------
def _attach(parent: Element, child: Node) -> None:
    child.parent = parent
    parent.children.append(child)


def _flush_text(element: Element, pieces: list[str]) -> None:
    """Turn accumulated character data into one stripped text child."""
    merged = "".join(pieces).strip()
    pieces.clear()
    if merged:
        _attach(element, Text(merged))


def _set_attributes(element: Element, source: str, offset: int) -> None:
    """Attach the attributes of one start tag (``source`` already scanned)."""
    seen: set[str] = set()
    attributes: list[Attribute] = []
    element.attributes = attributes
    for name, double, single in _ATTRIBUTE_RE.findall(source):
        if not name.isascii():
            _check_name(name, offset)
        if name in seen:
            raise XMLParseError(f"duplicate attribute {name!r}", offset)
        seen.add(name)
        value = double or single
        if "&" in value:
            value = _decode_references(value, offset)
        attribute = Attribute(name, value)
        attribute.parent = element
        attributes.append(attribute)


def block_placeholder(
    element: Element, position: int = 0
) -> "EncryptedBlockNode | None":
    """The block placeholder an ``EncryptedData`` element stands for.

    ``None`` for any other element, including an ``EncryptedData`` without
    a ``block-id``.  The parser applies this to every element it closes
    below the root; a document that *is* one encrypted block keeps its
    root as a plain element, and ``load_system``, which expects one,
    applies it to the root itself.
    """
    if element.tag != ENCRYPTED_DATA_TAG:
        return None
    attribute = element.attribute("block-id")
    if attribute is None:
        return None
    try:
        return EncryptedBlockNode(
            int(attribute.value), bytes.fromhex(element.text_value() or "")
        )
    except ValueError:
        raise XMLParseError("malformed encrypted block", position) from None


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def _decode_reference(body: str, position: int) -> str:
    """Expand one ``&body;`` reference."""
    try:
        if body[:2] in ("#x", "#X"):
            return chr(int(body[2:], 16))
        if body[:1] == "#":
            return chr(int(body[1:]))
        return _ENTITY_MAP[body]
    except KeyError:
        raise XMLParseError(f"unknown entity &{body};", position) from None
    except (ValueError, OverflowError):
        raise XMLParseError(
            f"malformed character reference &{body};", position
        ) from None


def _decode_references(value: str, offset: int) -> str:
    """Expand every reference in an attribute value."""
    pieces = []
    pos = 0
    while True:
        start = value.find("&", pos)
        if start < 0:
            pieces.append(value[pos:])
            return "".join(pieces)
        reference = _REFERENCE_RE.match(value, start)
        if reference is None:
            raise XMLParseError("unterminated entity reference", offset)
        pieces.append(value[pos:start])
        pieces.append(_decode_reference(reference.group(1), offset))
        pos = reference.end()


# ----------------------------------------------------------------------
# Rejections (cold path: work out *why* no token matched)
# ----------------------------------------------------------------------
def _check_name(name: str, position: int) -> None:
    first = name[0]
    if not (first.isalpha() or first in "_:"):
        raise XMLParseError("expected a name", position)


def _unterminated(text: str, pos: int, *openers: str) -> "XMLParseError | None":
    for opener in openers:
        if text.startswith(opener, pos):
            return XMLParseError(f"unterminated {_OPENERS[opener]}", pos)
    return None


_OPENERS = {
    "<!--": "comment",
    "<![CDATA[": "CDATA section",
    "<?": "processing instruction",
    "<!DOCTYPE": "DOCTYPE",
}


def _prolog_error(text: str, pos: int, otherwise: str) -> XMLParseError:
    return _unterminated(text, pos, "<!--", "<?", "<!DOCTYPE") or XMLParseError(
        otherwise, pos
    )


def _token_error(
    text: str, pos: int, element: "Element | None"
) -> XMLParseError:
    """The error for input at ``pos`` that is not a content token."""
    if pos >= len(text):
        tag = element.tag if element is not None else ""
        return XMLParseError(f"unterminated element <{tag}>", pos)
    if text[pos] == "&":
        return XMLParseError("unterminated entity reference", pos)
    if text.startswith("</", pos):
        return XMLParseError("malformed closing tag", pos + 2)
    unterminated = _unterminated(text, pos, "<!--", "<![CDATA[", "<?")
    if unterminated is not None:
        return unterminated

    # A start tag that does not scan: find the first thing wrong with it.
    opened = _OPEN_RE.match(text, pos)
    if opened is None:
        return XMLParseError("expected a name", pos + 1)
    pos = opened.end()
    while (attribute := _ATTRIBUTE_RE.match(text, pos)) is not None:
        pos = attribute.end()
    pos = _SPACE_RE.match(text, pos).end()
    if pos >= len(text):
        return XMLParseError("unexpected end of input", pos)
    named = _ATTRIBUTE_NAME_RE.match(text, pos)
    if named is None:
        return XMLParseError("expected a name", pos)
    pos = named.end()
    if not text.startswith("=", pos):
        return XMLParseError("expected '='", pos)
    pos = _SPACE_RE.match(text, pos + 1).end()
    quote = text[pos : pos + 1]
    if quote not in ("'", '"'):
        return XMLParseError("expected quoted attribute value", pos)
    closing = text.find(quote, pos + 1)
    bracket = text.find("<", pos + 1)
    if bracket >= 0 and (closing < 0 or bracket < closing):
        return XMLParseError("'<' not allowed in attribute value", bracket)
    return XMLParseError("unexpected end of input", len(text))
