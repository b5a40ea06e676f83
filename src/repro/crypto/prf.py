"""Keyed PRF / PRG and deterministic randomness helpers.

Several pieces of the system need *keyed, reproducible* randomness:

* the DSI index draws the gap weights ``w1, w2`` per node (§5.1, "generated
  at random before assigning an interval", known only to the client);
* OPESS draws the splitting displacements ``w_i`` and the scale factors
  ``s_i`` (§5.2.1);
* decoy values are "randomly generated data values" (§4.1).

All of them use :class:`DeterministicRandom`, a counter-mode PRG over
HMAC-SHA256, so a client keyring reproduces the exact same hosted database
and metadata from the same master key — which is what makes query
translation on the client line up with the index on the server.
"""

from __future__ import annotations

from hashlib import sha256

_BLOCK = 64  # SHA-256's input block, HMAC's key-pad width
#: ``bytes.translate`` tables XORing every byte with RFC 2104's ipad / opad.
_IPAD = bytes(value ^ 0x36 for value in range(256))
_OPAD = bytes(value ^ 0x5C for value in range(256))


class PRF:
    """A keyed pseudo-random function ``bytes -> 32 bytes``: HMAC-SHA256.

    Pre-keyed once.  RFC 2104's HMAC is ``H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖
    m))``, and both padded keys fill exactly one SHA-256 block, so the
    constructor absorbs each into a C-backed ``hashlib`` state and every
    draw is ``copy() / update() / digest()`` on the pair — the two key
    blocks are never hashed again.  Hosting draws once per OPE rectangle
    and once per 32 stream bytes, some twenty thousand times, and a cold
    read derives one IV and checks one tag per shipped block; a draw costs
    about a third of a one-shot ``hmac.digest``, which re-keys each time.
    Byte-identical to :func:`~repro.crypto.hmac.hmac_sha256` and to the
    from-scratch ``tests/hmac_spec.py`` for every key and message.

    The keyed pair is never written after construction, so concurrent
    draws on one instance are safe.
    """

    def __init__(self, key: bytes) -> None:
        key = bytes(key)
        if len(key) > _BLOCK:
            key = sha256(key).digest()
        key = key.ljust(_BLOCK, b"\x00")
        self._inner = sha256(key.translate(_IPAD))
        self._outer = sha256(key.translate(_OPAD))

    def __call__(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def integer(self, message: bytes, bits: int = 64) -> int:
        """PRF output truncated to an unsigned ``bits``-bit integer."""
        if not 0 < bits <= 256:
            raise ValueError("bits must be in (0, 256]")
        digest = self(message)
        return int.from_bytes(digest, "big") >> (256 - bits)


class DeterministicRandom:
    """Counter-mode PRG exposing a ``random``-like interface.

    The stream is a function of ``(key, stream_label)`` only.  Distinct
    labels give independent streams from the same key, which is how the
    keyring hands out per-purpose randomness.  The key is folded with the
    label once; block ``i`` of the stream is the whole 32-byte
    HMAC-SHA256 of the counter ``i`` under the folded key, drawn through
    one pre-keyed :class:`PRF`.
    """

    def __init__(self, key: bytes, stream_label: str = "") -> None:
        self._key = PRF(key)(b"drbg:" + stream_label.encode("utf-8"))
        self._prf = PRF(self._key)
        self._counter = 0
        self._buffer = b""

    def _refill(self) -> None:
        self._buffer += self._prf(self._counter.to_bytes(8, "big"))
        self._counter += 1

    def bytes(self, count: int) -> bytes:
        """Next ``count`` bytes of the stream."""
        if count < 0:
            raise ValueError("count must be non-negative")
        while len(self._buffer) < count:
            self._refill()
        out, self._buffer = self._buffer[:count], self._buffer[count:]
        return out

    def uint(self, bits: int = 64) -> int:
        """Next unsigned integer with the given bit width."""
        byte_count = (bits + 7) // 8
        value = int.from_bytes(self.bytes(byte_count), "big")
        return value >> (byte_count * 8 - bits)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Next float uniform in ``[low, high)`` (53-bit resolution)."""
        fraction = self.uint(53) / (1 << 53)
        return low + fraction * (high - low)

    def randint(self, low: int, high: int) -> int:
        """Next integer uniform in the inclusive range ``[low, high]``.

        Uses rejection sampling so the distribution is exactly uniform.
        """
        if low > high:
            raise ValueError("low must be <= high")
        span = high - low + 1
        bits = max(1, span.bit_length())
        while True:
            candidate = self.uint(bits)
            if candidate < span:
                return low + candidate

    def choice(self, items: list):
        """Pick one item uniformly."""
        if not items:
            raise ValueError("cannot choose from an empty list")
        return items[self.randint(0, len(items) - 1)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher–Yates shuffle."""
        for index in range(len(items) - 1, 0, -1):
            swap = self.randint(0, index)
            items[index], items[swap] = items[swap], items[index]

    def token(self, length: int = 8, alphabet: str = "abcdefghijklmnopqrstuvwxyz") -> str:
        """A random string over ``alphabet`` (used for decoy values)."""
        return "".join(
            alphabet[self.randint(0, len(alphabet) - 1)] for _ in range(length)
        )
