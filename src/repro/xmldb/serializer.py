"""Serialization of document trees back to XML text.

The serializer is the exact inverse of :mod:`repro.xmldb.parser` on the
supported subset, which the property-based round-trip tests rely on.
Encrypted-block placeholders are written in a W3C XML-Encryption-like wire
shape (an ``EncryptedData`` element carrying the block id and the hex-encoded
ciphertext), mirroring the per-block envelope overhead the paper discusses in
§7.4 when comparing scheme output sizes.
"""

from __future__ import annotations

from repro.xmldb.node import (
    Attribute,
    Document,
    Element,
    EncryptedBlockNode,
    Node,
    Text,
)
from repro.xmldb.parser import ENCRYPTED_DATA_TAG

#: How a serialized block opens and closes.  ``<`` is escaped everywhere
#: else, so ``text.count(BLOCK_OPEN)`` is the blocks in a serialized subtree:
#: what the server reports as shipped and what the client's scan resolves.
BLOCK_OPEN = f'<{ENCRYPTED_DATA_TAG} block-id="'
BLOCK_CLOSE = f"</{ENCRYPTED_DATA_TAG}>"


def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attribute(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")


def serialize(node: "Node | Document", indent: bool = False) -> str:
    """Render a node or document as an XML string.

    With ``indent=True`` a human-readable two-space-indented layout is
    produced; the compact form (the default) is byte-stable and is what the
    encryptor and the size-based attack model measure.
    """
    if isinstance(node, Document):
        node = node.root
    pieces: list[str] = []
    _write(node, pieces, 0, indent)
    return "".join(pieces)


def serialized_size(node: "Node | Document") -> int:
    """Size in bytes of the compact UTF-8 serialization.

    This is the quantity the paper's size-based attacker observes
    (Definition 3.1 condition (1) uses ``|E(D)|``).
    """
    return len(serialize(node).encode("utf-8"))


def _write(node: Node, pieces: list[str], level: int, indent: bool) -> None:
    pad = "  " * level if indent else ""
    newline = "\n" if indent else ""

    if isinstance(node, Text):
        pieces.append(f"{pad}{_escape_text(node.value)}{newline}")
        return

    if isinstance(node, EncryptedBlockNode):
        pieces.append(
            f'{pad}{BLOCK_OPEN}{node.block_id}">'
            f"{node.payload.hex()}{BLOCK_CLOSE}{newline}"
        )
        return

    if isinstance(node, Attribute):
        # Attributes are serialized by their owning element; a bare attribute
        # is rendered in the XPath-style @name=value debug form.
        pieces.append(f"{pad}@{node.name}={node.value!r}{newline}")
        return

    assert isinstance(node, Element)
    attribute_text = "".join(
        f' {attribute.name}="{_escape_attribute(attribute.value)}"'
        for attribute in node.attributes
    )
    if not node.children:
        pieces.append(f"{pad}<{node.tag}{attribute_text}/>{newline}")
        return

    if node.is_leaf_element:
        # Keep leaf values inline even when indenting so values survive the
        # parser's whitespace stripping unchanged.
        child = node.children[0]
        assert isinstance(child, Text)
        pieces.append(
            f"{pad}<{node.tag}{attribute_text}>"
            f"{_escape_text(child.value)}</{node.tag}>{newline}"
        )
        return

    pieces.append(f"{pad}<{node.tag}{attribute_text}>{newline}")
    for child in node.children:
        _write(child, pieces, level + 1, indent)
    pieces.append(f"{pad}</{node.tag}>{newline}")
