"""Cryptographic primitives used by the reproduction.

The paper needs four cryptographic contracts, all implemented here without
external crypto dependencies:

* a keyed PRF for key derivation, integrity tags and deterministic
  randomness — HMAC-SHA256 through the standard library's C
  implementation (:mod:`repro.crypto.hmac`, :mod:`repro.crypto.prf`),
  held to a from-scratch RFC 2104 / FIPS 180-4 transcription that lives
  with the test suite;
* a semantically secure block cipher for encryption blocks —
  :mod:`repro.crypto.aes` (FIPS-197 AES-128) with batched CBC and PKCS#7
  padding in :mod:`repro.crypto.modes`;
* the Vernam (one-time pad) cipher for tag names in the DSI index table and
  translated queries (§5.1.1, §6.1) — :mod:`repro.crypto.vernam`;
* a keyed, strictly monotone order-preserving encryption function as the
  ``enc`` used by OPESS (§5.2.1) — :mod:`repro.crypto.ope`.

:mod:`repro.crypto.keyring` holds the client's key hierarchy and derives all
of the above from a single master secret.
"""

from repro.crypto.hmac import hmac_sha256
from repro.crypto.prf import PRF, DeterministicRandom
from repro.crypto.aes import AES128
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.vernam import VernamCipher, DeterministicTagCipher
from repro.crypto.ope import OrderPreservingEncryption
from repro.crypto.keyring import ClientKeyring

__all__ = [
    "hmac_sha256",
    "PRF",
    "DeterministicRandom",
    "AES128",
    "cbc_encrypt",
    "cbc_decrypt",
    "pkcs7_pad",
    "pkcs7_unpad",
    "VernamCipher",
    "DeterministicTagCipher",
    "OrderPreservingEncryption",
    "ClientKeyring",
]
