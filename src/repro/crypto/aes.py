"""AES-128 block cipher, implemented from the FIPS-197 specification.

Used (through the modes in :mod:`repro.crypto.modes`) to encrypt the
serialized subtrees that become encryption blocks (§4.1).  The S-box is
derived programmatically from its definition — multiplicative inverse in
GF(2⁸) followed by the affine transform — rather than hard-coded, and the
whole cipher is validated against the FIPS-197 Appendix C test vector in the
test suite.

Single blocks run the **T-table path** (:meth:`AES128.encrypt_block` /
:meth:`AES128.decrypt_block`) — the classic 32-bit-word formulation:
SubBytes+ShiftRows+MixColumns fused into four 256-entry word tables (and
the equivalent inverse cipher for decryption), so each round is sixteen
table lookups and word XORs instead of dozens of per-byte loops.  The
tables are built once at import from the field arithmetic below.  The
readable reference — a direct transcription of the FIPS-197 round
functions over a 16-byte state list, from the same S-box and GF tables —
is ``tests/aes_spec.py``, and the property suite checks byte-identity of
every path against it on random keys and blocks.

A third form serves whole batches in both directions:
:meth:`AES128.encrypt_blocks` / :meth:`AES128.decrypt_blocks` hold ``n``
independent blocks as sixteen *byte-planes* (plane ``j`` is byte ``j`` of
every block) and run each round as a handful of ``bytes.translate`` and
big-integer XOR calls over all ``n`` blocks at once, so the per-block cost
is C loops rather than Python bytecode.  One kernel,
:func:`_plane_rounds`, runs both: the forward cipher is the equivalent
inverse cipher with its tables swapped (SubBytes fused with ×2 and ×3 in
place of InvSubBytes with ×14/11/13/9) and its rows rotated left instead
of right.  It is byte-identical to the T-table path and the spec
(``tests/test_crypto_fastpath.py``) and pays off from
:data:`_PLANE_MIN_BLOCKS` blocks up; narrower batches take the T-table
path.  Batch width is the only thing that picks the kernel.

Key schedules are expanded exactly once per distinct key
(:func:`_expand_key_cached`), and :func:`aes128_for_key` memoizes whole
cipher objects so every consumer of the same derived key — hosting,
query decryption, incremental updates — shares one instance.
"""

from __future__ import annotations

from functools import lru_cache
from struct import Struct

from repro.obs.span import count

_FOUR_WORDS = Struct(">IIII")


def _gf_multiply(a: int, b: int) -> int:
    """Multiply two elements of GF(2⁸) modulo the AES polynomial x⁸+x⁴+x³+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high_bit = a & 0x80
        a = (a << 1) & 0xFF
        if high_bit:
            a ^= 0x1B
        b >>= 1
    return result


def _gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2⁸) (0 maps to 0, per the S-box spec)."""
    if a == 0:
        return 0
    # a^(2^8 - 2) = a^254 is the inverse in GF(2^8).
    result = 1
    base = a
    exponent = 254
    while exponent:
        if exponent & 1:
            result = _gf_multiply(result, base)
        base = _gf_multiply(base, base)
        exponent >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    """Construct the forward and inverse S-boxes from first principles."""
    forward = bytearray(256)
    for value in range(256):
        inverse = _gf_inverse(value)
        # Affine transform: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i
        transformed = 0
        for bit in range(8):
            bit_value = (
                (inverse >> bit)
                ^ (inverse >> ((bit + 4) % 8))
                ^ (inverse >> ((bit + 5) % 8))
                ^ (inverse >> ((bit + 6) % 8))
                ^ (inverse >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            transformed |= bit_value << bit
        forward[value] = transformed
    backward = bytearray(256)
    for value, substituted in enumerate(forward):
        backward[substituted] = value
    return bytes(forward), bytes(backward)


_SBOX, _INV_SBOX = _build_sbox()

# Precomputed GF(2^8) multiplication tables for the MixColumns constants.
# Table lookups replace per-byte _gf_multiply loops in the hot path; the
# tables themselves are still derived from the from-scratch field
# arithmetic above.
_MUL = {
    constant: bytes(_gf_multiply(value, constant) for value in range(256))
    for constant in (2, 3, 9, 11, 13, 14)
}

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _rotr8(word: int) -> int:
    """Rotate a 32-bit word right by one byte."""
    return ((word >> 8) | (word << 24)) & 0xFFFFFFFF


def _build_round_tables() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Build the encryption T-tables, decryption D-tables and the
    InvMixColumns U-tables, all from the S-box and GF tables.

    ``T0[x]`` is the MixColumns image of the column ``(S[x], 0, 0, 0)``;
    ``U0[x]`` the InvMixColumns image of ``(x, 0, 0, 0)``; ``D0[x] =
    U0[InvS[x]]`` fuses InvSubBytes with InvMixColumns (the equivalent
    inverse cipher of FIPS-197 §5.3.5).  ``Ti``/``Ui``/``Di`` are byte
    rotations of table 0, matching the other three column positions.
    """
    mul2, mul3 = _MUL[2], _MUL[3]
    mul9, mul11, mul13, mul14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
    t0 = []
    u0 = []
    for x in range(256):
        s = _SBOX[x]
        t0.append((mul2[s] << 24) | (s << 16) | (s << 8) | mul3[s])
        u0.append((mul14[x] << 24) | (mul9[x] << 16) | (mul13[x] << 8) | mul11[x])
    d0 = [u0[_INV_SBOX[x]] for x in range(256)]
    tables = []
    for base in (t0, u0, d0):
        family = [tuple(base)]
        for _ in range(3):
            family.append(tuple(_rotr8(word) for word in family[-1]))
        tables.append(tuple(family))
    return tuple(tables)


(_ENC_T, _INV_MIX_U, _DEC_T) = _build_round_tables()
(_T0, _T1, _T2, _T3) = _ENC_T
(_U0, _U1, _U2, _U3) = _INV_MIX_U
(_D0, _D1, _D2, _D3) = _DEC_T


def _fused_sbox(box: bytes, constant: int) -> bytes:
    """A ``bytes.translate`` table for ``constant · box[x]`` in GF(2⁸)."""
    return bytes(_MUL[constant][box[x]] for x in range(256))


#: How the byte-plane kernel runs one direction of the cipher: the
#: left rotation of each state row (ShiftRows turns row ``i`` left by
#: ``i``, InvShiftRows right by ``i``), the four fused S-box tables whose
#: images of rows ``i, i+1, i+2, i+3`` XOR into output row ``i`` (the
#: MixColumns row ``2 3 1 1`` and the InvMixColumns row ``14 11 13 9``),
#: and the bare S-box of the final round.  Key independent, 1.5 KiB in all.
_PLANE_FORWARD = (
    (0, 1, 2, 3),
    (_fused_sbox(_SBOX, 2), _fused_sbox(_SBOX, 3), _SBOX, _SBOX),
    _SBOX,
)
_PLANE_INVERSE = (
    (0, 3, 2, 1),
    tuple(_fused_sbox(_INV_SBOX, constant) for constant in (14, 11, 13, 9)),
    _INV_SBOX,
)

#: State byte held by each plane, planes in row-major order.
_PLANE_ORDER = tuple(row + 4 * col for row in range(4) for col in range(4))

#: Fewest cipher blocks the byte-plane kernel is used for.  It costs
#: ~75 µs of C calls per batch before the first byte, against ~13 µs per
#: block on the T-table path, so it wins from about this many blocks.  A
#: property of the input (batch size), not a setting.
_PLANE_MIN_BLOCKS = 8


def _plane_rounds(
    data: bytes,
    schedule: "tuple[tuple[int, ...], ...]",
    direction: tuple,
) -> bytes:
    """Ten AES rounds over every 16-byte block of ``data`` at once.

    Layout: the state of all ``n`` blocks is one ``16n``-byte string of
    planes in *row-major* order — plane ``4*row + col`` holds state byte
    ``row + 4*col`` of every block — so that

    * (Inv)ShiftRows is a renaming of planes within each row (slices and
      a join),
    * (Inv)SubBytes∘(Inv)MixColumns is one whole-state ``translate`` per
      distinct table of ``direction`` (the S-box fused into each GF
      constant); because the layout is row-major, "row ``i+k``" is the
      image rotated by ``4kn`` bytes, and the rotated images XOR as
      integers into output row ``i``,
    * AddRoundKey is one more integer XOR with the round key spread over
      the planes.

    SubBytes commutes with ShiftRows, so each round shifts first.  The
    forward cipher runs ``schedule`` = the FIPS-197 round keys under
    :data:`_PLANE_FORWARD`; the equivalent inverse cipher runs the
    T-table decryptor's schedule under :data:`_PLANE_INVERSE`, so no
    per-key table exists.  XOR is position-wise, so the integer byte
    order is immaterial as long as it is the same everywhere;
    little-endian is the cheaper conversion in CPython.
    """
    rotations, (by_row, by_next, by_second, by_third), final_table = direction
    n = len(data) // 16
    size = 16 * n
    n4, n8, n12 = 4 * n, 8 * n, 12 * n
    from_bytes = int.from_bytes
    keys = [
        from_bytes(
            b"".join(round_key[j : j + 1] * n for j in _PLANE_ORDER),
            "little",
        )
        for round_key in (_FOUR_WORDS.pack(*words) for words in schedule)
    ]
    # Row ``i`` turned left by ``t`` planes: its planes from ``t`` on,
    # then its first ``t``.
    cuts = []
    for row, turn in enumerate(rotations):
        start = n4 * row
        cuts.append((start + turn * n, start + n4))
        if turn:
            cuts.append((start, start + turn * n))
    state = (
        from_bytes(b"".join(data[j::16] for j in _PLANE_ORDER), "little")
        ^ keys[0]
    ).to_bytes(size, "little")
    for round_index in range(1, 11):
        state = b"".join([state[low:high] for low, high in cuts])
        if round_index == 10:
            mixed = from_bytes(state.translate(final_table), "little")
        else:
            next_rows = state.translate(by_next)
            second_rows = state.translate(by_second)
            third_rows = (
                second_rows if by_third is by_second
                else state.translate(by_third)
            )
            mixed = (
                from_bytes(state.translate(by_row), "little")
                ^ from_bytes(next_rows[n4:] + next_rows[:n4], "little")
                ^ from_bytes(second_rows[n8:] + second_rows[:n8], "little")
                ^ from_bytes(third_rows[n12:] + third_rows[:n12], "little")
            )
        state = (mixed ^ keys[round_index]).to_bytes(size, "little")
    out = bytearray(size)
    for plane, j in enumerate(_PLANE_ORDER):
        out[j::16] = state[plane * n : (plane + 1) * n]
    return bytes(out)


def _inv_mix_word(word: int) -> int:
    """InvMixColumns over one 32-bit column word (used on round keys)."""
    return (
        _U0[(word >> 24) & 0xFF]
        ^ _U1[(word >> 16) & 0xFF]
        ^ _U2[(word >> 8) & 0xFF]
        ^ _U3[word & 0xFF]
    )


@lru_cache(maxsize=4096)
def _expand_key_cached(
    key: bytes,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """FIPS-197 §5.2 key expansion, computed once per distinct key.

    Returns ``(enc_schedule, dec_schedule)``:

    * ``enc_schedule`` — 11 rounds × 4 big-endian words, for the T-table
      encryptor (and, spread over the planes, the forward plane kernel);
    * ``dec_schedule`` — the equivalent-inverse-cipher schedule: round
      keys in reverse order with InvMixColumns applied to the nine inner
      ones, for the D-table decryptor and the inverse plane kernel.
    """
    count("key_expansions")
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        word = list(words[i - 1])
        if i % 4 == 0:
            word = word[1:] + word[:1]                     # RotWord
            word = [_SBOX[b] for b in word]                # SubWord
            word[0] ^= _RCON[i // 4 - 1]
        words.append([w ^ p for w, p in zip(word, words[i - 4])])

    enc_schedule = []
    for round_index in range(11):
        round_words = words[round_index * 4 : round_index * 4 + 4]
        enc_schedule.append(
            tuple((w[0] << 24) | (w[1] << 16) | (w[2] << 8) | w[3] for w in round_words)
        )

    dec_schedule = [enc_schedule[10]]
    for round_index in range(9, 0, -1):
        dec_schedule.append(
            tuple(_inv_mix_word(word) for word in enc_schedule[round_index])
        )
    dec_schedule.append(enc_schedule[0])
    return tuple(enc_schedule), tuple(dec_schedule)


class AES128:
    """AES with a 128-bit key: 10 rounds over a 4×4 byte state.

    ``encrypt_block``/``decrypt_block`` run the T-table path,
    ``encrypt_blocks``/``decrypt_blocks`` pick it or the byte-plane
    kernel by batch width; every form produces the bytes of the FIPS-197
    transcription in ``tests/aes_spec.py`` for every key and block.
    """

    BLOCK_SIZE = 16
    KEY_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != self.KEY_SIZE:
            raise ValueError("AES-128 requires a 16-byte key")
        self._enc_schedule, self._dec_schedule = _expand_key_cached(bytes(key))

    # ------------------------------------------------------------------
    # T-table path (public block interface)
    # ------------------------------------------------------------------
    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(plaintext) != self.BLOCK_SIZE:
            raise ValueError("plaintext block must be 16 bytes")
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        schedule = self._enc_schedule
        w0, w1, w2, w3 = _FOUR_WORDS.unpack(plaintext)
        k0, k1, k2, k3 = schedule[0]
        w0 ^= k0
        w1 ^= k1
        w2 ^= k2
        w3 ^= k3
        for k0, k1, k2, k3 in schedule[1:10]:
            n0 = t0[w0 >> 24] ^ t1[(w1 >> 16) & 255] ^ t2[(w2 >> 8) & 255] ^ t3[w3 & 255] ^ k0
            n1 = t0[w1 >> 24] ^ t1[(w2 >> 16) & 255] ^ t2[(w3 >> 8) & 255] ^ t3[w0 & 255] ^ k1
            n2 = t0[w2 >> 24] ^ t1[(w3 >> 16) & 255] ^ t2[(w0 >> 8) & 255] ^ t3[w1 & 255] ^ k2
            n3 = t0[w3 >> 24] ^ t1[(w0 >> 16) & 255] ^ t2[(w1 >> 8) & 255] ^ t3[w2 & 255] ^ k3
            w0, w1, w2, w3 = n0, n1, n2, n3
        sbox = _SBOX
        k0, k1, k2, k3 = schedule[10]
        return _FOUR_WORDS.pack(
            ((sbox[w0 >> 24] << 24) | (sbox[(w1 >> 16) & 255] << 16)
             | (sbox[(w2 >> 8) & 255] << 8) | sbox[w3 & 255]) ^ k0,
            ((sbox[w1 >> 24] << 24) | (sbox[(w2 >> 16) & 255] << 16)
             | (sbox[(w3 >> 8) & 255] << 8) | sbox[w0 & 255]) ^ k1,
            ((sbox[w2 >> 24] << 24) | (sbox[(w3 >> 16) & 255] << 16)
             | (sbox[(w0 >> 8) & 255] << 8) | sbox[w1 & 255]) ^ k2,
            ((sbox[w3 >> 24] << 24) | (sbox[(w0 >> 16) & 255] << 16)
             | (sbox[(w1 >> 8) & 255] << 8) | sbox[w2 & 255]) ^ k3,
        )

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(ciphertext) != self.BLOCK_SIZE:
            raise ValueError("ciphertext block must be 16 bytes")
        d0, d1, d2, d3 = _D0, _D1, _D2, _D3
        schedule = self._dec_schedule
        w0, w1, w2, w3 = _FOUR_WORDS.unpack(ciphertext)
        k0, k1, k2, k3 = schedule[0]
        w0 ^= k0
        w1 ^= k1
        w2 ^= k2
        w3 ^= k3
        for k0, k1, k2, k3 in schedule[1:10]:
            n0 = d0[w0 >> 24] ^ d1[(w3 >> 16) & 255] ^ d2[(w2 >> 8) & 255] ^ d3[w1 & 255] ^ k0
            n1 = d0[w1 >> 24] ^ d1[(w0 >> 16) & 255] ^ d2[(w3 >> 8) & 255] ^ d3[w2 & 255] ^ k1
            n2 = d0[w2 >> 24] ^ d1[(w1 >> 16) & 255] ^ d2[(w0 >> 8) & 255] ^ d3[w3 & 255] ^ k2
            n3 = d0[w3 >> 24] ^ d1[(w2 >> 16) & 255] ^ d2[(w1 >> 8) & 255] ^ d3[w0 & 255] ^ k3
            w0, w1, w2, w3 = n0, n1, n2, n3
        inv = _INV_SBOX
        k0, k1, k2, k3 = schedule[10]
        return _FOUR_WORDS.pack(
            ((inv[w0 >> 24] << 24) | (inv[(w3 >> 16) & 255] << 16)
             | (inv[(w2 >> 8) & 255] << 8) | inv[w1 & 255]) ^ k0,
            ((inv[w1 >> 24] << 24) | (inv[(w0 >> 16) & 255] << 16)
             | (inv[(w3 >> 8) & 255] << 8) | inv[w2 & 255]) ^ k1,
            ((inv[w2 >> 24] << 24) | (inv[(w1 >> 16) & 255] << 16)
             | (inv[(w0 >> 8) & 255] << 8) | inv[w3 & 255]) ^ k2,
            ((inv[w3 >> 24] << 24) | (inv[(w2 >> 16) & 255] << 16)
             | (inv[(w1 >> 8) & 255] << 8) | inv[w0 & 255]) ^ k3,
        )


    # ------------------------------------------------------------------
    # Multi-block forms (ECB over independent blocks; the modes layer
    # applies the chaining)
    # ------------------------------------------------------------------
    def encrypt_blocks(self, plaintext: bytes) -> bytes:
        """Encrypt a whole number of independent 16-byte blocks.

        The batch form of :meth:`encrypt_block`: short inputs loop over
        the T-table path, longer ones go through the byte-plane kernel.
        """
        if len(plaintext) % self.BLOCK_SIZE != 0:
            raise ValueError("plaintext must be a whole number of blocks")
        if len(plaintext) < _PLANE_MIN_BLOCKS * self.BLOCK_SIZE:
            return self._encrypt_blocks_scalar(plaintext)
        return self._encrypt_blocks_planes(plaintext)

    def decrypt_blocks(self, ciphertext: bytes) -> bytes:
        """Decrypt a whole number of independent 16-byte blocks.

        The batch form of :meth:`decrypt_block`, split by size exactly as
        :meth:`encrypt_blocks` is.
        """
        if len(ciphertext) % self.BLOCK_SIZE != 0:
            raise ValueError("ciphertext must be a whole number of blocks")
        if len(ciphertext) < _PLANE_MIN_BLOCKS * self.BLOCK_SIZE:
            return self._decrypt_blocks_scalar(ciphertext)
        return self._decrypt_blocks_planes(ciphertext)

    def _encrypt_blocks_scalar(self, plaintext: bytes) -> bytes:
        encrypt_block = self.encrypt_block
        return b"".join([
            encrypt_block(plaintext[offset : offset + 16])
            for offset in range(0, len(plaintext), 16)
        ])

    def _decrypt_blocks_scalar(self, ciphertext: bytes) -> bytes:
        decrypt_block = self.decrypt_block
        return b"".join([
            decrypt_block(ciphertext[offset : offset + 16])
            for offset in range(0, len(ciphertext), 16)
        ])

    def _encrypt_blocks_planes(self, plaintext: bytes) -> bytes:
        """The cipher over sixteen byte-planes (:func:`_plane_rounds`)."""
        return _plane_rounds(plaintext, self._enc_schedule, _PLANE_FORWARD)

    def _decrypt_blocks_planes(self, ciphertext: bytes) -> bytes:
        """The equivalent inverse cipher over sixteen byte-planes."""
        return _plane_rounds(ciphertext, self._dec_schedule, _PLANE_INVERSE)


@lru_cache(maxsize=1024)
def aes128_for_key(key: bytes) -> AES128:
    """Shared cipher object for a derived key (one key schedule ever).

    Hosting, query-time decryption and incremental updates all reach AES
    through this cache, so a derived block key is expanded exactly once
    per process no matter how many keyrings or sessions reference it.
    """
    return AES128(key)
