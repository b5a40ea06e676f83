"""Vernam (one-time pad) cipher and the deterministic tag cipher.

The paper encrypts element tags in the DSI index table with the Vernam
cipher "because of its perfect security property" (§5.1.1), and translates
query tags "with the same keys used for the construction of DSI index table"
(§6.1).  Two classes realise this:

:class:`VernamCipher`
    The textbook one-time pad over bytes.  Perfectly secure when the pad is
    uniform and never reused; used directly in the security test-suite to
    demonstrate the perfect-security argument of Theorem 4.1.

:class:`DeterministicTagCipher`
    The keyed tag-name encoding used operationally.  Each distinct tag is
    XOR-ed with a pad derived (by a PRF) from the secret key and the tag's
    identity, then armoured into an uppercase alphanumeric token like the
    paper's ``U84573``.  Determinism is what lets the server look translated
    query tags up in the DSI index table; one-wayness doesn't matter to the
    client, which keeps a plaintext↔token map for display purposes.
"""

from __future__ import annotations

from repro.crypto.hmac import hmac_sha256
from repro.crypto.prf import PRF

_TOKEN_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


class VernamCipher:
    """The classic one-time pad: ``ciphertext = plaintext XOR pad``."""

    @staticmethod
    def encrypt(plaintext: bytes, pad: bytes) -> bytes:
        """XOR the plaintext with a pad of at least equal length."""
        if len(pad) < len(plaintext):
            raise ValueError("one-time pad must be at least as long as the message")
        return bytes(p ^ k for p, k in zip(plaintext, pad))

    @staticmethod
    def decrypt(ciphertext: bytes, pad: bytes) -> bytes:
        """Identical to encryption (XOR is an involution)."""
        return VernamCipher.encrypt(ciphertext, pad)


class DeterministicTagCipher:
    """Keyed deterministic encryption of tag names into opaque tokens."""

    def __init__(self, key: bytes, token_length: int = 10) -> None:
        if token_length < 4:
            raise ValueError("token length must be at least 4")
        self._prf = PRF(key)
        self._token_length = token_length
        self._known: dict[str, str] = {}
        self._reverse: dict[str, str] = {}

    def encrypt_tag(self, tag: str) -> str:
        """Map a tag (or ``@attribute`` name) to its ciphertext token."""
        cached = self._known.get(tag)
        if cached is not None:
            return cached
        plaintext = tag.encode("utf-8")
        pad = self._pad_for(tag, len(plaintext))
        masked = VernamCipher.encrypt(plaintext, pad)
        token = self._armor(masked + self._prf(b"tag-tail:" + plaintext)[:4])
        self._known[tag] = token
        self._reverse[token] = tag
        return token

    def decrypt_tag(self, token: str) -> str:
        """Invert a token previously produced by this cipher instance.

        Only the client calls this, and only for tokens it created — the
        plaintext map is part of the client's private state, never shipped
        to the server.
        """
        try:
            return self._reverse[token]
        except KeyError:
            raise ValueError(f"unknown tag token {token!r}") from None

    def _pad_for(self, tag: str, length: int) -> bytes:
        pad = b""
        counter = 0
        seed = b"tag-pad:" + tag.encode("utf-8")
        while len(pad) < length:
            pad += self._prf(seed + counter.to_bytes(4, "big"))
            counter += 1
        return pad[:length]

    def _armor(self, data: bytes) -> str:
        """Encode bytes into a fixed-length uppercase alphanumeric token."""
        value = int.from_bytes(hmac_sha256(data, b"armor"), "big")
        chars: list[str] = []
        for _ in range(self._token_length):
            value, remainder = divmod(value, len(_TOKEN_ALPHABET))
            chars.append(_TOKEN_ALPHABET[remainder])
        return "".join(chars)
