"""HMAC-SHA256 per RFC 2104.

Used as the keyed PRF underlying key derivation, the deterministic tag
cipher's keystream, the order-preserving encryption function's gap
generator, the per-block CBC IVs and every integrity tag.

Two equivalent code paths exist, the same split :mod:`repro.crypto.aes`
has between ``encrypt_block`` and ``encrypt_block_spec``:

* :func:`hmac_sha256` — the one entry point every consumer calls, backed
  by the C implementation in the standard library (``hmac.digest``).  A
  cold query derives one IV and checks one tag per shipped encryption
  block, so this function's cost is paid hundreds of times per response;
* :func:`hmac_sha256_spec` — the RFC 2104 construction over the
  from-scratch SHA-256 of :mod:`repro.crypto.sha256`, kept as the
  readable reference and the differential oracle of the test suite.

The two are asserted byte-identical on the RFC 4231 vectors and on random
inputs, so which one runs is an implementation detail, not a different
primitive: hosted bytes, tags and wire blobs do not depend on it.
"""

from __future__ import annotations

import hmac as _stdlib_hmac

from repro.crypto.sha256 import sha256

_BLOCK_SIZE = 64  # SHA-256 block size in bytes


def _check_bytes(key: bytes, message: bytes) -> None:
    if not isinstance(key, (bytes, bytearray)):
        raise TypeError("hmac key must be bytes")
    if not isinstance(message, (bytes, bytearray)):
        raise TypeError("hmac message must be bytes")


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Compute HMAC-SHA256(key, message) (32 bytes)."""
    _check_bytes(key, message)
    return _stdlib_hmac.digest(key, message, "sha256")


def hmac_sha256_spec(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 transcribed from RFC 2104 over the from-scratch SHA-256.

    Byte-identical to :func:`hmac_sha256`; the reference the fast path is
    tested against.
    """
    _check_bytes(key, message)
    key = bytes(key)
    if len(key) > _BLOCK_SIZE:
        key = sha256(key)
    key = key.ljust(_BLOCK_SIZE, b"\x00")

    inner_pad = bytes(byte ^ 0x36 for byte in key)
    outer_pad = bytes(byte ^ 0x5C for byte in key)
    return sha256(outer_pad + sha256(inner_pad + bytes(message)))


def derive_key(master: bytes, label: str, *context: str) -> bytes:
    """Derive a 32-byte subkey from a master secret.

    A simple HKDF-expand-style derivation: the label and context strings are
    length-prefixed so distinct derivations can never collide
    (``derive_key(k, "a", "bc") != derive_key(k, "ab", "c")``).
    """
    material = _length_prefixed(label.encode("utf-8"))
    for item in context:
        material += _length_prefixed(item.encode("utf-8"))
    return hmac_sha256(master, material)


def _length_prefixed(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data
