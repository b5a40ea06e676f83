"""The client's key hierarchy.

The data owner holds a single master secret; every other key in the system —
block-encryption keys, the tag cipher key, the OPE key, the per-field OPESS
splitting/scaling seeds, the DSI weight stream, the decoy stream and the
access-pattern cover stream — is derived from it with the HKDF-style
labelled derivation in :mod:`repro.crypto.hmac`.  Two derived values are
handed to the server's side: the wire session keys and, with the
access-pattern tier on, the cover stream that picks its decoy fetches.
Nothing else derived here leaves the client; the server sees only
ciphertexts and metadata.

Determinism matters: hosting the same database twice with the same master
key produces byte-identical ciphertext and metadata, which the test suite
exploits, and which models the paper's setting where the client can always
re-derive "the same keys used for the construction of the DSI index table"
(§6.1) at query-translation time.

Determinism must not mean *reuse*.  Hosting encrypts each block once, so
an IV derived from the block id and one decoy stream are fresh there.  A
write after hosting encrypts again — under a block id that already has a
ciphertext on the server — so everything it draws is derived from the
write's **stamp** as well: the epoch the write commits as, which is
monotone, persisted with the freshness anchor and never repeats.
:meth:`ClientKeyring.block_iv`, :meth:`ClientKeyring.decoy_stream` and
:meth:`ClientKeyring.dsi_weight_stream` take it; a block hosting wrote has
no stamp and keeps the id-only derivation.
"""

from __future__ import annotations

from repro.crypto.aes import AES128, aes128_for_key
from repro.crypto.hmac import derivation_message
from repro.crypto.ope import OrderPreservingEncryption
from repro.crypto.prf import DeterministicRandom, PRF
from repro.crypto.vernam import DeterministicTagCipher


def _context(*ids: "int | None") -> list[str]:
    """Derivation context naming a block and/or a write stamp; an absent
    id (hosting has no stamp) contributes nothing."""
    return [str(part) for part in ids if part is not None]


class ClientKeyring:
    """All client-side secrets, derived from one master key."""

    def __init__(self, master_key: bytes) -> None:
        if len(master_key) < 16:
            raise ValueError("master key must be at least 16 bytes")
        #: The master key, pre-keyed once: every derivation below is one
        #: draw on it.
        self._master = PRF(master_key)
        self._tag_cipher: DeterministicTagCipher | None = None
        self._ope: OrderPreservingEncryption | None = None
        self._block_cipher: AES128 | None = None
        self._block_mac: PRF | None = None

    def _derive(self, label: str, *context: str) -> bytes:
        """``derive_key(master, label, *context)`` on the pre-keyed master."""
        return self._master(derivation_message(label, *context))

    # ------------------------------------------------------------------
    # Ciphers
    # ------------------------------------------------------------------
    @property
    def block_cipher(self) -> AES128:
        """AES instance for encryption-block payloads.

        Goes through the process-wide keyed cipher cache, so every
        keyring derived from the same master key shares one cipher
        object and its one key expansion.
        """
        if self._block_cipher is None:
            self._block_cipher = aes128_for_key(self.block_key_bytes())
        return self._block_cipher

    def block_key_bytes(self) -> bytes:
        """Raw AES key for block payloads (client-side use only).

        The one ``"block"`` derivation :attr:`block_cipher` is built
        from.  Never sent anywhere.
        """
        return self._derive("block")[:16]

    def block_iv(self, block_id: int, stamp: int | None = None) -> bytes:
        """Per-block CBC IV, derived on each call: one draw on the
        pre-keyed master.

        ``stamp`` is the epoch the block's payload was written at, from
        ``HostedDatabase.block_stamps``; ``None`` for a block still
        holding the payload hosting gave it.
        """
        return self._derive("block-iv", *_context(block_id, stamp))[:16]

    @property
    def tag_cipher(self) -> DeterministicTagCipher:
        """The Vernam-style tag cipher shared by index build and translation."""
        if self._tag_cipher is None:
            self._tag_cipher = DeterministicTagCipher(
                self._derive("tags")
            )
        return self._tag_cipher

    @property
    def ope(self) -> OrderPreservingEncryption:
        """The order-preserving encryption function used by OPESS."""
        if self._ope is None:
            self._ope = OrderPreservingEncryption(self._derive("ope"))
        return self._ope

    # ------------------------------------------------------------------
    # Integrity keys (untrusted-server hardening)
    # ------------------------------------------------------------------
    @property
    def block_mac_key(self) -> bytes:
        """MAC key for encryption-block tags.  **Never** given to the server."""
        return self._derive("block-mac")

    def block_tag(self, block_id: int, payload: bytes) -> bytes:
        """Encrypt-then-MAC tag binding a ciphertext payload to its block id.

        Computed by the client at hosting/update time and stored with the
        server's metadata; the server cannot forge a tag for a modified
        (or swapped) payload because it never holds :attr:`block_mac_key`.
        """
        if self._block_mac is None:
            self._block_mac = PRF(self.block_mac_key)
        return self._block_mac(block_id.to_bytes(8, "big") + payload)

    def session_keys(self) -> "tuple[bytes, bytes]":
        """(request, response) MAC keys for the wire envelope.

        Both are shared with the server at hosting time — they model the
        authenticated session a real deployment would establish — so they
        defend against *wire* tampering, while :meth:`block_tag` defends
        against the server itself.
        """
        return (
            self._derive("request-mac"),
            self._derive("response-mac"),
        )

    # ------------------------------------------------------------------
    # Deterministic randomness streams
    # ------------------------------------------------------------------
    def dsi_weight_stream(
        self, stamp: int | None = None
    ) -> DeterministicRandom:
        """Stream of DSI gap weights w1, w2 ∈ (0, 0.5) (§5.1).

        Without a stamp, hosting's stream; with one, the stream of the
        one insert that commits as epoch ``stamp``.
        """
        return DeterministicRandom(
            self._derive("dsi-weights", *_context(stamp))
        )

    def decoy_stream(
        self, block_id: int | None = None, stamp: int | None = None
    ) -> DeterministicRandom:
        """Stream of random decoy values (§4.1).

        Without arguments, hosting's stream, drawn from block after
        block; ``decoy_stream(block_id, stamp)`` is the stream of one
        block written after hosting.
        """
        return DeterministicRandom(
            self._derive("decoys", *_context(block_id, stamp))
        )

    def cover_stream(self) -> DeterministicRandom:
        """Stream of the access-pattern tier's decoy and padding block
        picks and fetch-order shuffles (:mod:`repro.core.leakage`).

        Keyed by the master key, so the same key replays byte-identical
        fetch traces and an observer holding only public values cannot
        replay the draws to strip the cover traffic off.
        """
        return DeterministicRandom(self._derive("leakage-cover"))

    def opess_stream(self, field: str) -> DeterministicRandom:
        """Per-field stream for OPESS splitting weights and scale factors."""
        return DeterministicRandom(self._derive("opess", field))
