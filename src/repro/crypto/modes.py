"""Block cipher modes of operation and PKCS#7 padding.

Encryption blocks (serialized subtrees) are encrypted with AES-128-CBC and a
deterministic per-block IV derived from the block id — the hosted database
must be reproducible from the client keyring, and CBC with distinct IVs keeps
equal plaintext subtrees from producing equal ciphertexts (the same goal the
paper's decoys serve at the value level, here at the byte level).

Both directions batch, and both hand whole batches to the byte-plane
kernels of :class:`~repro.crypto.aes.AES128`; blocks are combined as big
integers via ``int.from_bytes`` rather than per-byte loops.

* **Decryption** has no sequential dependency: plaintext block ``k`` is
  the decryption of cipher block ``k`` XOR cipher block ``k - 1``.
  :func:`cbc_decrypt_many` hands every cipher block of every payload of a
  response to :meth:`AES128.decrypt_blocks` in one call and applies the
  chaining XOR once.
* **Encryption** of one chain is sequential — block ``k`` needs block
  ``k - 1``'s *output* — but independent chains are not.
  :func:`cbc_encrypt_many` advances every chain of a batch in lock-step:
  step ``k`` encrypts block ``k`` of every chain that long in one
  :meth:`AES128.encrypt_blocks` call, so hosting's few-block chains run as
  a handful of wide passes.  A single chain (a write, or one long
  payload) is a batch of width one and stays on the T-table path.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.aes import AES128
from repro.obs.span import count

BLOCK = AES128.BLOCK_SIZE


def pkcs7_pad(data: bytes, block_size: int = BLOCK) -> bytes:
    """Append PKCS#7 padding (always at least one byte)."""
    if not 0 < block_size < 256:
        raise ValueError("block size must be in (0, 256)")
    pad_length = block_size - (len(data) % block_size)
    return data + bytes([pad_length]) * pad_length


def pkcs7_unpad(data: bytes, block_size: int = BLOCK) -> bytes:
    """Strip and validate PKCS#7 padding."""
    if not data or len(data) % block_size != 0:
        raise ValueError("invalid padded data length")
    pad_length = data[-1]
    if not 0 < pad_length <= block_size:
        raise ValueError("invalid padding byte")
    if data[-pad_length:] != bytes([pad_length]) * pad_length:
        raise ValueError("corrupt padding")
    return data[:-pad_length]


def _xor_bytes(left: bytes, right: bytes) -> bytes:
    """XOR two equal-length byte strings as one big-integer operation."""
    length = len(left)
    return (
        int.from_bytes(left, "big") ^ int.from_bytes(right, "big")
    ).to_bytes(length, "big")


def cbc_encrypt(cipher: AES128, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt ``plaintext`` (padded internally with PKCS#7)."""
    return cbc_encrypt_many(cipher, [(iv, plaintext)])[0]


def cbc_encrypt_many(
    cipher: AES128, items: "Sequence[tuple[bytes, bytes]]"
) -> list[bytes]:
    """CBC-encrypt independent ``(iv, plaintext)`` payloads in lock-step.

    Equal to ``[cbc_encrypt(cipher, iv, pt) for iv, pt in items]``.  The
    chains are ranked longest first, so the chains still running at step
    ``k`` are always a prefix of the ranking: step ``k`` XORs block ``k``
    of each of them with that chain's previous cipher block (its IV at
    step 0) in one big-integer operation, then encrypts them all in one
    :meth:`AES128.encrypt_blocks` call.  Every IV is validated before any
    block is encrypted.
    """
    for iv, _ in items:
        if len(iv) != BLOCK:
            raise ValueError("IV must be one cipher block")
    padded = [pkcs7_pad(plaintext) for _, plaintext in items]
    count("blocks_encrypted", sum(map(len, padded)) // BLOCK)
    ranking = sorted(
        range(len(padded)), key=lambda index: len(padded[index]), reverse=True
    )
    chains = [padded[index] for index in ranking]
    previous = b"".join([items[index][0] for index in ranking])
    encrypt_blocks = cipher.encrypt_blocks
    from_bytes = int.from_bytes
    steps: list[bytes] = []
    live = len(chains)
    for offset in range(0, len(chains[0]) if chains else 0, BLOCK):
        while len(chains[live - 1]) <= offset:
            live -= 1
        end = offset + BLOCK
        width = BLOCK * live
        previous = encrypt_blocks((
            from_bytes(
                b"".join([chain[offset:end] for chain in chains[:live]]),
                "little",
            )
            ^ from_bytes(previous[:width], "little")
        ).to_bytes(width, "little"))
        steps.append(previous)
    ciphertexts: list[bytes] = [b""] * len(padded)
    for rank, index in enumerate(ranking):
        low = BLOCK * rank
        high = low + BLOCK
        ciphertexts[index] = b"".join([
            step[low:high] for step in steps[: len(chains[rank]) // BLOCK]
        ])
    return ciphertexts


def cbc_decrypt(cipher: AES128, iv: bytes, ciphertext: bytes) -> bytes:
    """CBC-decrypt and remove PKCS#7 padding."""
    return cbc_decrypt_many(cipher, [(iv, ciphertext)])[0]


def cbc_decrypt_many(
    cipher: AES128, items: "Sequence[tuple[bytes, bytes]]"
) -> list[bytes]:
    """CBC-decrypt independent ``(iv, ciphertext)`` payloads in one pass.

    Equal to ``[cbc_decrypt(cipher, iv, ct) for iv, ct in items]``, but
    every cipher block of every payload goes through one
    :meth:`AES128.decrypt_blocks` call and one chaining XOR.  All inputs
    are validated before any block is decrypted, and a padding failure
    in any member raises ``ValueError`` for the whole batch — no
    plaintext of the other members is returned.
    """
    for iv, ciphertext in items:
        if len(iv) != BLOCK:
            raise ValueError("IV must be one cipher block")
        if len(ciphertext) % BLOCK != 0:
            raise ValueError(
                "ciphertext length must be a multiple of the block size"
            )
    joined = b"".join(ciphertext for _, ciphertext in items)
    count("blocks_decrypted", len(joined) // BLOCK)
    # Each plaintext block is decrypted-block XOR previous ciphertext
    # block (IV for the first block of a payload) — independent per
    # block, so one whole-batch XOR replaces the chaining loop.
    chain = b"".join(
        iv + ciphertext[:-BLOCK] for iv, ciphertext in items if ciphertext
    )
    padded = _xor_bytes(cipher.decrypt_blocks(joined), chain)
    plaintexts = []
    offset = 0
    for _, ciphertext in items:
        end = offset + len(ciphertext)
        plaintexts.append(pkcs7_unpad(padded[offset:end]))
        offset = end
    return plaintexts
