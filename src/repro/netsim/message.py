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

Codec stability is not a compatibility promise (client and server are
versioned together); determinism is what matters — the same query object
encodes to the same bytes, which the request/response wire caches key on.

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
from typing import Any


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

    def build(record: dict[str, Any]) -> TranslatedNode:
        node = TranslatedNode(
            keys=tuple(record["k"]),
            axis=record["a"],
            value_ranges=(
                [KeyRange(low, high) for low, high in record["r"]]
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

    try:
        root = build(_load(payload)["q"])
    except (KeyError, TypeError, IndexError) as exc:
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
def _fragment_record(fragment: Any) -> dict[str, Any]:
    return {
        "p": [[tag, nid] for tag, nid in fragment.ancestor_path],
        "x": fragment.xml,
    }


def _fragment_from_record(record: dict[str, Any]) -> Any:
    from repro.core.server import Fragment

    return Fragment(
        ancestor_path=tuple((tag, nid) for tag, nid in record["p"]),
        xml=record["x"],
    )


def encode_response(response: Any) -> bytes:
    """Serialize a ``ServerResponse`` to canonical JSON bytes."""
    return json.dumps(
        {
            "n": int(response.naive),
            "b": response.blocks_shipped,
            "cc": response.candidate_counts,
            "f": [_fragment_record(f) for f in response.fragments],
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")


def decode_response(payload: bytes) -> Any:
    """Rebuild a ``ServerResponse`` from :func:`encode_response` bytes."""
    from repro.core.server import ServerResponse

    try:
        record = _load(payload)
        return ServerResponse(
            fragments=[_fragment_from_record(f) for f in record["f"]],
            naive=bool(record["n"]),
            blocks_shipped=record["b"],
            candidate_counts=dict(record["cc"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MessageDecodeError(f"malformed response message: {exc}") from exc


def _load(payload: bytes) -> dict[str, Any]:
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MessageDecodeError(f"undecodable message: {exc}") from exc
    if not isinstance(record, dict):
        raise MessageDecodeError("message is not an object")
    return record
