"""HMAC-SHA256 per RFC 2104.

Used as the keyed PRF underlying key derivation, the deterministic tag
cipher's keystream, every deterministic randomness stream, the
order-preserving encryption function's gap generator, the per-block CBC
IVs and every integrity tag.

:func:`hmac_sha256` is the one-shot entry point, backed by the C
implementation in the standard library (``hmac.digest``).  Everything that
draws many times under one key — hosting's weights, decoys and OPE
rectangles, and the keyring's per-block IVs and tags, one of each per
shipped block on a cold read — goes through the pre-keyed
:class:`~repro.crypto.prf.PRF` instead, which computes the same bytes.
The readable reference — the RFC 2104 construction over a from-scratch
SHA-256 — is ``tests/hmac_spec.py``; all three are asserted
byte-identical on the RFC 4231 vectors and on random inputs.
"""

from __future__ import annotations

import hmac as _stdlib_hmac


def _check_bytes(key: bytes, message: bytes) -> None:
    if not isinstance(key, (bytes, bytearray)):
        raise TypeError("hmac key must be bytes")
    if not isinstance(message, (bytes, bytearray)):
        raise TypeError("hmac message must be bytes")


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Compute HMAC-SHA256(key, message) (32 bytes)."""
    _check_bytes(key, message)
    return _stdlib_hmac.digest(key, message, "sha256")


def derive_key(master: bytes, label: str, *context: str) -> bytes:
    """Derive a 32-byte subkey from a master secret.

    A simple HKDF-expand-style derivation: the label and context strings are
    length-prefixed so distinct derivations can never collide
    (``derive_key(k, "a", "bc") != derive_key(k, "ab", "c")``).
    """
    return hmac_sha256(master, derivation_message(label, *context))


def derivation_message(label: str, *context: str) -> bytes:
    """The message :func:`derive_key` MACs: every part length-prefixed."""
    material = _length_prefixed(label.encode("utf-8"))
    for item in context:
        material += _length_prefixed(item.encode("utf-8"))
    return material


def _length_prefixed(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data
