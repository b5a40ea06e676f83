"""AES-128 (FIPS-197), transcribed round function by round function.

The readable reference the fast paths of :mod:`repro.crypto.aes` — the
T-table block path and the byte-plane batch kernel — are tested against in
``test_crypto_fastpath.py``, beside ``hmac_spec.py``.  The state is a flat
list of 16 bytes, column-major as in the spec (``state[row + 4*col]``).
It derives from ``src/``'s S-boxes and GF(2⁸) multiplication tables, the
field arithmetic the T-tables are built from, and reads the round keys off
the cipher's key schedule.  Pure Python, clarity over speed; nothing at
run time calls it.
"""

from __future__ import annotations

from repro.crypto.aes import _INV_SBOX, _MUL, _SBOX, AES128


def _round_keys(cipher: AES128) -> list[bytes]:
    """The 11 round keys of ``cipher``, 16 bytes each (FIPS-197 §5.2)."""
    return [
        b"".join(word.to_bytes(4, "big") for word in words)
        for words in cipher._enc_schedule
    ]


def _add_round_key(state: list[int], round_key: bytes) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def _sub_bytes(state: list[int], box: bytes) -> None:
    for i in range(16):
        state[i] = box[state[i]]


def _shift_rows(state: list[int]) -> None:
    for row in range(1, 4):
        row_bytes = [state[row + 4 * col] for col in range(4)]
        row_bytes = row_bytes[row:] + row_bytes[:row]
        for col in range(4):
            state[row + 4 * col] = row_bytes[col]


def _inv_shift_rows(state: list[int]) -> None:
    for row in range(1, 4):
        row_bytes = [state[row + 4 * col] for col in range(4)]
        row_bytes = row_bytes[-row:] + row_bytes[:-row]
        for col in range(4):
            state[row + 4 * col] = row_bytes[col]


def _mix_columns(state: list[int]) -> None:
    mul2, mul3 = _MUL[2], _MUL[3]
    for col in range(0, 16, 4):
        a0, a1, a2, a3 = state[col : col + 4]
        state[col + 0] = mul2[a0] ^ mul3[a1] ^ a2 ^ a3
        state[col + 1] = a0 ^ mul2[a1] ^ mul3[a2] ^ a3
        state[col + 2] = a0 ^ a1 ^ mul2[a2] ^ mul3[a3]
        state[col + 3] = mul3[a0] ^ a1 ^ a2 ^ mul2[a3]


def _inv_mix_columns(state: list[int]) -> None:
    mul9, mul11, mul13, mul14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
    for col in range(0, 16, 4):
        a0, a1, a2, a3 = state[col : col + 4]
        state[col + 0] = mul14[a0] ^ mul11[a1] ^ mul13[a2] ^ mul9[a3]
        state[col + 1] = mul9[a0] ^ mul14[a1] ^ mul11[a2] ^ mul13[a3]
        state[col + 2] = mul13[a0] ^ mul9[a1] ^ mul14[a2] ^ mul11[a3]
        state[col + 3] = mul11[a0] ^ mul13[a1] ^ mul9[a2] ^ mul14[a3]


def encrypt_block_spec(cipher: AES128, plaintext: bytes) -> bytes:
    """Encrypt one block under ``cipher``'s key, round by round."""
    if len(plaintext) != AES128.BLOCK_SIZE:
        raise ValueError("plaintext block must be 16 bytes")
    round_keys = _round_keys(cipher)
    state = list(plaintext)
    _add_round_key(state, round_keys[0])
    for round_index in range(1, 10):
        _sub_bytes(state, _SBOX)
        _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, round_keys[round_index])
    _sub_bytes(state, _SBOX)
    _shift_rows(state)
    _add_round_key(state, round_keys[10])
    return bytes(state)


def decrypt_block_spec(cipher: AES128, ciphertext: bytes) -> bytes:
    """Decrypt one block under ``cipher``'s key, round by round."""
    if len(ciphertext) != AES128.BLOCK_SIZE:
        raise ValueError("ciphertext block must be 16 bytes")
    round_keys = _round_keys(cipher)
    state = list(ciphertext)
    _add_round_key(state, round_keys[10])
    for round_index in range(9, 0, -1):
        _inv_shift_rows(state)
        _sub_bytes(state, _INV_SBOX)
        _add_round_key(state, round_keys[round_index])
        _inv_mix_columns(state)
    _inv_shift_rows(state)
    _sub_bytes(state, _INV_SBOX)
    _add_round_key(state, round_keys[0])
    return bytes(state)
