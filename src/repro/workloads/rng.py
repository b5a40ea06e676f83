"""The workload generators' random stream: SipHash-2-4 in counter mode.

The XMark / NASA documents, the §7.1 query classes and the axis shapes are
drawn from a seeded stream, and a ``(size, seed)`` pair has to keep naming
the same document: every table in EXPERIMENTS.md describes these documents
and the benchmark gate compares two commits on them.  The generators are
not cryptography, so they do not follow the keyring when its PRF changes.
:class:`WorkloadRandom` is :class:`~repro.crypto.prf.DeterministicRandom`
with its own refill — eight bytes of SipHash-2-4 per counter value, keyed
by the first half of the folded key — and ``tests/test_workloads.py`` pins
the documents and query sets it draws.

SipHash-2-4 is implemented from the Aumasson–Bernstein specification and
verified against the paper's reference vectors in the test suite.  Nothing
outside ``repro/workloads/`` imports this module
(``tests/test_api_surface.py``).
"""

from __future__ import annotations

from repro.crypto.prf import DeterministicRandom

_MASK64 = 0xFFFFFFFFFFFFFFFF


def siphash24(key: bytes, message: bytes) -> int:
    """SipHash-2-4 of ``message`` under a 16-byte key; returns a 64-bit int.

    The compression rounds are manually unrolled with local variables:
    closure/function-call overhead in pure Python would roughly triple
    the cost of building a document.
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


class WorkloadRandom(DeterministicRandom):
    """The generators' stream: ``DeterministicRandom`` refilled by SipHash."""

    def _refill(self) -> None:
        self._buffer += SipPRF(self._key).block(self._counter.to_bytes(8, "big"))
        self._counter += 1
