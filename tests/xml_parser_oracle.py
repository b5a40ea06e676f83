"""The recursive-descent XML parser, kept as the scanning parser's oracle.

This is ``repro/xmldb/parser.py`` as it stood before the token scanner
replaced it: a per-character cursor with one Python frame per nesting
level.  ``test_xmldb_parser_oracle.py`` holds the new parser to it — same
tree wherever this one returns a tree, ``XMLParseError`` wherever this
one raises it.  Its known holes (``RecursionError`` on deep nesting, bare
``ValueError`` on malformed character references) are what the scanner
closes; they are left in place here.
"""

from __future__ import annotations

from repro.xmldb.node import Element, EncryptedBlockNode, Text
from repro.xmldb.parser import ENCRYPTED_DATA_TAG, XMLParseError

_ENTITY_MAP = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

# '#' is admitted in names because the paper's running example uses tags
# like "policy#" (Figure 2).
_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-#")


def parse_fragment(text: str) -> Element:
    """Parse a single-rooted XML fragment into an (unnumbered) element tree."""
    parser = _Parser(text)
    root = parser.parse_root()
    return root


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA


class _Parser:
    """Single-pass cursor over the input string."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    # ------------------------------------------------------------------
    # Cursor helpers
    # ------------------------------------------------------------------
    def _error(self, message: str) -> XMLParseError:
        return XMLParseError(message, self.pos)

    def _peek(self) -> str:
        if self.pos >= self.length:
            raise self._error("unexpected end of input")
        return self.text[self.pos]

    def _startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def _expect(self, token: str) -> None:
        if not self._startswith(token):
            raise self._error(f"expected {token!r}")
        self.pos += len(token)

    def _skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos].isspace():
            self.pos += 1

    def _skip_misc(self) -> None:
        """Skip whitespace, comments, PIs and the XML declaration."""
        while True:
            self._skip_whitespace()
            if self._startswith("<?"):
                end = self.text.find("?>", self.pos)
                if end < 0:
                    raise self._error("unterminated processing instruction")
                self.pos = end + 2
            elif self._startswith("<!--"):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self._error("unterminated comment")
                self.pos = end + 3
            elif self._startswith("<!DOCTYPE"):
                # Skip to the matching '>' (no internal subsets supported).
                end = self.text.find(">", self.pos)
                if end < 0:
                    raise self._error("unterminated DOCTYPE")
                self.pos = end + 1
            else:
                return

    # ------------------------------------------------------------------
    # Grammar productions
    # ------------------------------------------------------------------
    def parse_root(self) -> Element:
        self._skip_misc()
        if self.pos >= self.length or self._peek() != "<":
            raise self._error("expected root element")
        root = self._parse_element()
        self._skip_misc()
        if self.pos != self.length:
            raise self._error("trailing content after root element")
        return _decode_encrypted_blocks(root)

    def _parse_name(self) -> str:
        start = self.pos
        if self.pos >= self.length or not _is_name_start(self._peek()):
            raise self._error("expected a name")
        self.pos += 1
        while self.pos < self.length and _is_name_char(self.text[self.pos]):
            self.pos += 1
        return self.text[start : self.pos]

    def _parse_attribute_value(self) -> str:
        quote = self._peek()
        if quote not in ("'", '"'):
            raise self._error("expected quoted attribute value")
        self.pos += 1
        pieces: list[str] = []
        while True:
            char = self._peek()
            if char == quote:
                self.pos += 1
                return "".join(pieces)
            if char == "<":
                raise self._error("'<' not allowed in attribute value")
            if char == "&":
                pieces.append(self._parse_entity())
            else:
                pieces.append(char)
                self.pos += 1

    def _parse_entity(self) -> str:
        self._expect("&")
        end = self.text.find(";", self.pos)
        if end < 0 or end - self.pos > 10:
            raise self._error("unterminated entity reference")
        body = self.text[self.pos : end]
        self.pos = end + 1
        if body.startswith("#x") or body.startswith("#X"):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:]))
        try:
            return _ENTITY_MAP[body]
        except KeyError:
            raise self._error(f"unknown entity &{body};") from None

    def _parse_element(self) -> Element:
        self._expect("<")
        tag = self._parse_name()
        element = Element(tag)

        # Attributes.
        while True:
            self._skip_whitespace()
            char = self._peek()
            if char == ">" or self._startswith("/>"):
                break
            name = self._parse_name()
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            value = self._parse_attribute_value()
            if element.attribute(name) is not None:
                raise self._error(f"duplicate attribute {name!r}")
            element.set_attribute(name, value)

        if self._startswith("/>"):
            self.pos += 2
            return element
        self._expect(">")

        # Content.
        text_pieces: list[str] = []

        def flush_text() -> None:
            if text_pieces:
                merged = "".join(text_pieces)
                text_pieces.clear()
                if merged.strip():
                    element.append(Text(merged.strip()))

        while True:
            if self.pos >= self.length:
                raise self._error(f"unterminated element <{tag}>")
            char = self._peek()
            if char == "<":
                if self._startswith("</"):
                    flush_text()
                    self.pos += 2
                    closing = self._parse_name()
                    if closing != tag:
                        raise self._error(
                            f"mismatched closing tag </{closing}> for <{tag}>"
                        )
                    self._skip_whitespace()
                    self._expect(">")
                    return element
                if self._startswith("<!--"):
                    end = self.text.find("-->", self.pos)
                    if end < 0:
                        raise self._error("unterminated comment")
                    self.pos = end + 3
                elif self._startswith("<![CDATA["):
                    end = self.text.find("]]>", self.pos)
                    if end < 0:
                        raise self._error("unterminated CDATA section")
                    text_pieces.append(self.text[self.pos + 9 : end])
                    self.pos = end + 3
                elif self._startswith("<?"):
                    end = self.text.find("?>", self.pos)
                    if end < 0:
                        raise self._error("unterminated processing instruction")
                    self.pos = end + 2
                else:
                    flush_text()
                    element.append(self._parse_element())
            elif char == "&":
                text_pieces.append(self._parse_entity())
            else:
                text_pieces.append(char)
                self.pos += 1


def _decode_encrypted_blocks(root: Element) -> Element:
    """Replace serialized ``EncryptedData`` elements with placeholders."""
    replacements: list[tuple[Element, EncryptedBlockNode]] = []
    for node in root.iter():
        if isinstance(node, Element) and node.tag == ENCRYPTED_DATA_TAG:
            attribute = node.attribute("block-id")
            if attribute is None:
                continue
            payload_text = node.text_value() or ""
            placeholder = EncryptedBlockNode(
                int(attribute.value), bytes.fromhex(payload_text)
            )
            replacements.append((node, placeholder))
    for element, placeholder in replacements:
        if element is root:
            # A fragment that *is* one encrypted block parses as a plain
            # EncryptedData element; the client unwraps it explicitly.
            continue
        element.replace_with(placeholder)
    return root
