"""Block cipher modes of operation and PKCS#7 padding.

Encryption blocks (serialized subtrees) are encrypted with AES-128-CBC and a
deterministic per-block IV derived from the block id — the hosted database
must be reproducible from the client keyring, and CBC with distinct IVs keeps
equal plaintext subtrees from producing equal ciphertexts (the same goal the
paper's decoys serve at the value level, here at the byte level).  CTR mode
is provided for keystream-style uses.

The XOR plumbing is word-wise: blocks are combined as 128-bit integers via
``int.from_bytes`` rather than per-byte generator expressions, and the
chaining XOR of CBC decryption (plus the keystream XOR of CTR) is applied
to the whole message in a single big-integer operation — CBC decryption
and CTR have no sequential data dependency, only CBC *encryption* does.
That independence is also why decryption batches: :func:`cbc_decrypt_many`
hands every cipher block of every payload of a response to
:meth:`AES128.decrypt_blocks` in one call, while each block of an
encryption needs the previous block's *output* first.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.aes import AES128
from repro.perf import counters

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
    if len(iv) != BLOCK:
        raise ValueError("IV must be one cipher block")
    padded = pkcs7_pad(plaintext)
    counters.add("blocks_encrypted", len(padded) // BLOCK)
    encrypt_block = cipher.encrypt_block
    previous = int.from_bytes(iv, "big")
    out = bytearray()
    for offset in range(0, len(padded), BLOCK):
        block = int.from_bytes(padded[offset : offset + BLOCK], "big")
        encrypted = encrypt_block((block ^ previous).to_bytes(BLOCK, "big"))
        out += encrypted
        previous = int.from_bytes(encrypted, "big")
    return bytes(out)


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
    counters.add("blocks_decrypted", len(joined) // BLOCK)
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


def ctr_transform(cipher: AES128, nonce: bytes, data: bytes) -> bytes:
    """CTR-mode keystream XOR (encryption and decryption are the same op)."""
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    if not data:
        return b""
    encrypt_block = cipher.encrypt_block
    block_count = (len(data) + BLOCK - 1) // BLOCK
    keystream = b"".join(
        encrypt_block(nonce + counter.to_bytes(8, "big"))
        for counter in range(block_count)
    )
    return _xor_bytes(data, keystream[: len(data)])
