"""SipHash-2-4, implemented from the Aumasson–Bernstein specification.

SipHash is a keyed pseudo-random function designed for short inputs.  The
reproduction uses it as the PRF under the OPE function (one call per
bisection rectangle it samples) and under the deterministic randomness
streams (DSI weights, decoys, OPESS weights and scales).  It was chosen when
HMAC-SHA256 here was four pure-Python SHA-256 compressions per call; since
``repro.crypto.hmac.hmac_sha256`` became the C-backed ``hmac.digest`` that is
no longer true — on a 32-byte message the HMAC is ~2 µs and this pure-Python
SipHash ~16 µs.  It stays because every hosted ciphertext, interval and
decoy was drawn with it: swapping the PRF changes hosted bytes
(``tests/test_hosted_bytes_pinned.py``), which is a decision of its own
(ROADMAP item 1).  HMAC-SHA256 remains the key-derivation PRF; SipHash keys
are derived from it, so the hierarchy is still rooted in the hash.

Verified against the reference test vectors from the SipHash paper in the
test suite.
"""

from __future__ import annotations

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (64 - amount))) & _MASK64


def siphash24(key: bytes, message: bytes) -> int:
    """SipHash-2-4 of ``message`` under a 16-byte key; returns a 64-bit int.

    The compression rounds are manually unrolled with local variables —
    hosting spends most of its time here (one call per OPE rectangle
    sampled, one per eight stream bytes), and closure/function-call
    overhead in pure Python would roughly triple its cost.
    """
    if len(key) != 16:
        raise ValueError("SipHash requires a 16-byte key")
    k0 = int.from_bytes(key[:8], "little")
    k1 = int.from_bytes(key[8:], "little")

    v0 = k0 ^ 0x736F6D6570736575
    v1 = k1 ^ 0x646F72616E646F6D
    v2 = k0 ^ 0x6C7967656E657261
    v3 = k1 ^ 0x7465646279746573

    length = len(message)
    tail_length = length % 8

    def rounds(v0: int, v1: int, v2: int, v3: int, count: int):
        for _ in range(count):
            v0 = (v0 + v1) & _MASK64
            v1 = ((v1 << 13) | (v1 >> 51)) & _MASK64
            v1 ^= v0
            v0 = ((v0 << 32) | (v0 >> 32)) & _MASK64
            v2 = (v2 + v3) & _MASK64
            v3 = ((v3 << 16) | (v3 >> 48)) & _MASK64
            v3 ^= v2
            v0 = (v0 + v3) & _MASK64
            v3 = ((v3 << 21) | (v3 >> 43)) & _MASK64
            v3 ^= v0
            v2 = (v2 + v1) & _MASK64
            v1 = ((v1 << 17) | (v1 >> 47)) & _MASK64
            v1 ^= v2
            v2 = ((v2 << 32) | (v2 >> 32)) & _MASK64
        return v0, v1, v2, v3

    for offset in range(0, length - tail_length, 8):
        word = int.from_bytes(message[offset : offset + 8], "little")
        v3 ^= word
        v0, v1, v2, v3 = rounds(v0, v1, v2, v3, 2)
        v0 ^= word

    # Final block: remaining bytes plus the length in the top byte.
    final_word = (length & 0xFF) << 56
    if tail_length:
        final_word |= int.from_bytes(message[length - tail_length :], "little")
    v3 ^= final_word
    v0, v1, v2, v3 = rounds(v0, v1, v2, v3, 2)
    v0 ^= final_word

    v2 ^= 0xFF
    v0, v1, v2, v3 = rounds(v0, v1, v2, v3, 4)
    return (v0 ^ v1 ^ v2 ^ v3) & _MASK64


class SipPRF:
    """A keyed fast PRF returning 64-bit integers."""

    __slots__ = ("_key",)

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("SipPRF key must be at least 16 bytes")
        self._key = bytes(key[:16])

    def integer(self, message: bytes) -> int:
        """64-bit PRF output."""
        return siphash24(self._key, message)

    def block(self, message: bytes) -> bytes:
        """8-byte PRF output (for keystream-style uses)."""
        return siphash24(self._key, message).to_bytes(8, "little")
