"""Wire encoding of the client↔server messages.

The paper's protocol ships two message shapes (see ``docs/PROTOCOL.md``):
the translated query ``Qs`` (client→server) and a fragment list
(server→client).  Hardening the reproduction against an untrusted wire
requires *actual bytes* to cross the modelled channel — a fault policy
cannot flip bits in a Python object — so this module gives both shapes a
canonical JSON encoding.  The encodings are pure data: no pickle, no code
execution on decode, and every decode error is raised as
:class:`MessageDecodeError` so the retry layer can treat a mangled
payload that slipped past truncation checks exactly like a tampered one.

A response crosses as flat columns, so neither side builds a container
per fragment.  ``a`` is the ancestor row table — every distinct ancestor
once, as ``(parent row, tag, id)``, where a row names only an earlier
row or ``-1`` (the document root) — ``f`` holds each fragment's parent
row and ``x`` its text.  The decoder builds each row's ancestor path
once, and fragments under one parent share the tuple.  A table that
chains deeper than :data:`~repro.xmldb.parser.MAX_DEPTH` is refused,
which keeps decode's allocation linear in the payload.

Codec stability is not a compatibility promise (client and server are
versioned together, and the serving HELLO refuses a peer on another
``PROTOCOL_VERSION``); determinism is what matters — the same query
object encodes to the same bytes, which the request/response wire caches
key on, and a response of the same fragments and counts encodes to the
same payload, which is why the server may re-seal a payload it kept
instead of encoding again, and the client reuse what it decoded from a
byte-identical payload.  Both codecs are pure: neither reads state
beyond its argument.

Layering note: every message this module encodes crosses the wire inside
the *freshness* envelope (``rxi2``, :mod:`repro.core.integrity`), which
binds the commit epoch and block-tag Merkle root into the MAC.  The
codec itself is freshness-agnostic — the same encoded query is sealed to
different wire bytes at different epochs — which is why the rollback
attacker keys its recorded responses on the *stripped* request payload
(:func:`repro.core.integrity.envelope_payload`), not the sealed bytes.
"""

from __future__ import annotations

import json
import re
from typing import Any

from repro.xmldb.parser import MAX_DEPTH as _MAX_DEPTH

#: The JSON escape of a UTF-16 surrogate.  Left unpaired, it decodes to a
#: ``str`` that no UTF-8 can carry, and whoever encodes it fails untyped.
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


class MessageDecodeError(ValueError):
    """A wire payload did not decode to a valid message."""


# ----------------------------------------------------------------------
# Translated query (client -> server)
# ----------------------------------------------------------------------
def encode_query(query: Any) -> bytes:
    """Serialize a ``TranslatedQuery`` to canonical JSON bytes."""

    def node_dict(node: Any) -> dict[str, Any]:
        out: dict[str, Any] = {"k": list(node.keys), "a": node.axis}
        if node.value_ranges is not None:
            out["r"] = [[r.low, r.high] for r in node.value_ranges]
        if node.value_field_token is not None:
            out["t"] = node.value_field_token
        if node.plaintext_predicate is not None:
            out["p"] = list(node.plaintext_predicate)
        if node.is_output:
            out["o"] = 1
        if node.is_shipped:
            out["s"] = 1
        if node.position_sensitive:
            out["ps"] = 1
        if node.children:
            out["c"] = [node_dict(child) for child in node.children]
        return out

    return json.dumps(
        {"q": node_dict(query.root)}, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def decode_query(payload: bytes) -> Any:
    """Rebuild a ``TranslatedQuery`` from :func:`encode_query` bytes."""
    from repro.core.opess import KeyRange
    from repro.core.translate import TranslatedNode, TranslatedQuery

    def key_range(low: Any, high: Any) -> KeyRange:
        if type(low) is not int or type(high) is not int:
            raise TypeError(
                f"key range bounds must be integers: {low!r}, {high!r}"
            )
        return KeyRange(low, high)

    def build(record: dict[str, Any]) -> TranslatedNode:
        node = TranslatedNode(
            keys=tuple(record["k"]),
            axis=record["a"],
            value_ranges=(
                [key_range(low, high) for low, high in record["r"]]
                if "r" in record
                else None
            ),
            value_field_token=record.get("t"),
            plaintext_predicate=(
                (record["p"][0], record["p"][1]) if "p" in record else None
            ),
            is_output=bool(record.get("o")),
            is_shipped=bool(record.get("s")),
            position_sensitive=bool(record.get("ps")),
        )
        node.children = [build(child) for child in record.get("c", ())]
        return node

    record = _load(payload)
    try:
        root = build(record["q"])
    except (KeyError, TypeError, IndexError, ValueError, RecursionError) as exc:
        raise MessageDecodeError(f"malformed query message: {exc}") from exc
    output = next((n for n in root.walk() if n.is_output), root)
    # A plan may flag several ship nodes, none nested under another by
    # downward edges alone; the server ships the union of their survivors.
    ships = [n for n in root.walk() if n.is_shipped]
    return TranslatedQuery(
        root=root, output=output, ship_nodes=ships or [root]
    )


# ----------------------------------------------------------------------
# Server response (server -> client)
# ----------------------------------------------------------------------
def encode_response(response: Any) -> bytes:
    """Serialize a ``ServerResponse`` to canonical JSON bytes.

    Each distinct ancestor becomes one ``(parent row, tag, id)`` row of
    ``a``, interned by that whole triple — the same ``(tag, id)`` under
    two parents is two rows, so any response round-trips.  Fragments
    name their parent row in ``f`` (``-1``: the document root) and their
    text in ``x``.
    """
    rows: dict[tuple[int, str, int], int] = {}
    parents = []
    for fragment in response.fragments:
        row = -1
        for tag, nid in fragment.ancestor_path:
            key = (row, tag, nid)
            row = rows.get(key)
            if row is None:
                row = rows[key] = len(rows)
        parents.append(row)
    return json.dumps(
        {
            "a": list(rows),
            "b": response.blocks_shipped,
            "cc": response.candidate_counts,
            "f": parents,
            "x": [fragment.xml for fragment in response.fragments],
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")


def decode_response(payload: bytes) -> Any:
    """Rebuild a ``ServerResponse`` from :func:`encode_response` bytes.

    Each row's path is built once, from its parent's, and every fragment
    under that row shares the tuple.  A row naming itself or a later
    row, a path deeper than :data:`~repro.xmldb.parser.MAX_DEPTH`, a
    parent index outside the table, ``f`` and ``x`` of different
    lengths, or any value of the wrong JSON type is refused.
    """
    from repro.core.server import Fragment, ServerResponse

    record = _load(payload)
    try:
        paths = _ancestor_paths(record["a"])
        parents, texts = record["f"], record["x"]
        counts = record["cc"]
        if not (
            type(parents) is list
            and type(texts) is list
            and len(parents) == len(texts)
            and set(map(type, parents)) <= {int}
            and set(map(type, texts)) <= {str}
            and type(counts) is dict
            and set(map(type, counts.values())) <= {int}
            and type(record["b"]) is int
        ):
            raise MessageDecodeError("malformed response columns")
        if parents and not -1 <= min(parents) <= max(parents) < len(paths):
            raise MessageDecodeError("fragment names no row of the table")
    except (KeyError, TypeError) as exc:
        raise MessageDecodeError(f"malformed response message: {exc}") from exc
    paths.append(())  # row -1: the document root
    return ServerResponse(
        fragments=list(map(Fragment, map(paths.__getitem__, parents), texts)),
        blocks_shipped=record["b"],
        candidate_counts=counts,
    )


def _ancestor_paths(table: Any) -> list[tuple[tuple[str, int], ...]]:
    """Row ``i``'s full ancestor path, for every row of the ``a`` table."""
    if type(table) is not list:
        raise MessageDecodeError("ancestor table is not a list")
    paths: list[tuple[tuple[str, int], ...]] = []
    for row in table:
        if type(row) is not list or len(row) != 3:
            raise MessageDecodeError("ancestor row is not a triple")
        parent, tag, nid = row
        if not (
            type(parent) is int
            and type(tag) is str
            and type(nid) is int
            and -1 <= parent < len(paths)
        ):
            raise MessageDecodeError(f"malformed ancestor row {len(paths)}")
        base = paths[parent] if parent >= 0 else ()
        if len(base) >= _MAX_DEPTH:
            raise MessageDecodeError(
                f"ancestor path deeper than {_MAX_DEPTH}"
            )
        paths.append(base + ((tag, nid),))
    return paths


def _load(payload: bytes) -> dict[str, Any]:
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MessageDecodeError(f"undecodable message: {exc}") from exc
    if not isinstance(record, dict):
        raise MessageDecodeError("message is not an object")
    if _SURROGATE_ESCAPE.search(payload):  # rare: check what it decoded to
        try:
            json.dumps(record, ensure_ascii=False).encode("utf-8")
        except (UnicodeEncodeError, RecursionError) as exc:
            raise MessageDecodeError(f"unencodable message: {exc}") from None
    return record
