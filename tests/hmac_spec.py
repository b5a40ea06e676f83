"""SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104), transcribed from the specs.

The readable reference ``repro.crypto.hmac.hmac_sha256`` — the C-backed
``hmac.digest`` every consumer calls — is tested against, beside
``ReferenceAES128`` in ``test_crypto_fastpath.py``.  Pure Python, clarity
over speed; nothing at run time calls it.
"""

from __future__ import annotations

import struct

_MASK32 = 0xFFFFFFFF

#: First 32 bits of the fractional parts of the cube roots of the first
#: 64 primes (FIPS 180-4 §4.2.2).
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

#: Initial hash state: first 32 bits of the fractional parts of the square
#: roots of the first 8 primes (FIPS 180-4 §5.3.3).
_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)


def _rotr(value: int, amount: int) -> int:
    return ((value >> amount) | (value << (32 - amount))) & _MASK32


def _compress(state: tuple[int, ...], block: bytes) -> tuple[int, ...]:
    """One round of the SHA-256 compression function on a 64-byte block."""
    w = list(struct.unpack(">16I", block))
    for t in range(16, 64):
        s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
        s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
        w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)

    a, b, c, d, e, f, g, h = state
    for t in range(64):
        big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        temp1 = (h + big_s1 + ch + _K[t] + w[t]) & _MASK32
        big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = (big_s0 + maj) & _MASK32
        h = g
        g = f
        f = e
        e = (d + temp1) & _MASK32
        d = c
        c = b
        b = a
        a = (temp1 + temp2) & _MASK32

    return (
        (state[0] + a) & _MASK32,
        (state[1] + b) & _MASK32,
        (state[2] + c) & _MASK32,
        (state[3] + d) & _MASK32,
        (state[4] + e) & _MASK32,
        (state[5] + f) & _MASK32,
        (state[6] + g) & _MASK32,
        (state[7] + h) & _MASK32,
    )


def sha256(message: bytes) -> bytes:
    """Compute the SHA-256 digest of ``message`` (32 bytes)."""
    if not isinstance(message, (bytes, bytearray)):
        raise TypeError("sha256 expects bytes")

    # Merkle–Damgård padding: 0x80, zeros, 64-bit big-endian bit length.
    bit_length = len(message) * 8
    padded = bytes(message) + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    padded += struct.pack(">Q", bit_length)

    state = _H0
    for offset in range(0, len(padded), 64):
        state = _compress(state, padded[offset : offset + 64])
    return struct.pack(">8I", *state)


def sha256_hex(message: bytes) -> str:
    """Hex digest convenience wrapper."""
    return sha256(message).hex()


_BLOCK_SIZE = 64  # SHA-256 block size in bytes


def hmac_sha256_spec(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 transcribed from RFC 2104 over the from-scratch SHA-256.

    Byte-identical to ``repro.crypto.hmac.hmac_sha256``; the reference the
    fast path is tested against.
    """
    for argument, name in ((key, "key"), (message, "message")):
        if not isinstance(argument, (bytes, bytearray)):
            raise TypeError(f"hmac {name} must be bytes")
    key = bytes(key)
    if len(key) > _BLOCK_SIZE:
        key = sha256(key)
    key = key.ljust(_BLOCK_SIZE, b"\x00")

    inner_pad = bytes(byte ^ 0x36 for byte in key)
    outer_pad = bytes(byte ^ 0x5C for byte in key)
    return sha256(outer_pad + sha256(inner_pad + bytes(message)))
