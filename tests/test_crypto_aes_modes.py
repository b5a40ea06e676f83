"""Tests for the AES-128 block cipher and modes of operation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES128, _build_sbox, _gf_inverse, _gf_multiply
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


class TestGaloisField:
    def test_multiplication_examples(self):
        # Worked examples from FIPS-197 §4.2.
        assert _gf_multiply(0x57, 0x83) == 0xC1
        assert _gf_multiply(0x57, 0x13) == 0xFE

    def test_multiplicative_identity(self):
        for value in range(256):
            assert _gf_multiply(value, 1) == value

    def test_inverse_property(self):
        for value in range(1, 256):
            assert _gf_multiply(value, _gf_inverse(value)) == 1

    def test_sbox_known_entries(self):
        sbox, inv = _build_sbox()
        assert sbox[0x00] == 0x63
        assert sbox[0x53] == 0xED
        assert inv[0x63] == 0x00

    def test_sbox_is_permutation(self):
        sbox, inv = _build_sbox()
        assert sorted(sbox) == list(range(256))
        for value in range(256):
            assert inv[sbox[value]] == value


class TestAESBlock:
    def test_fips197_appendix_c_vector(self):
        cipher = AES128(KEY)
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        ciphertext = cipher.encrypt_block(plaintext)
        assert ciphertext.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
        assert cipher.decrypt_block(ciphertext) == plaintext

    def test_fips197_appendix_b_vector(self):
        cipher = AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert cipher.encrypt_block(plaintext).hex() == (
            "3925841d02dc09fbdc118597196a0b32"
        )

    @given(st.binary(min_size=16, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, block):
        cipher = AES128(KEY)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_key_size_enforced(self):
        with pytest.raises(ValueError):
            AES128(b"short")

    def test_block_size_enforced(self):
        cipher = AES128(KEY)
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"short")
        with pytest.raises(ValueError):
            cipher.decrypt_block(b"x" * 17)

    def test_different_keys_differ(self):
        block = b"\x00" * 16
        assert AES128(KEY).encrypt_block(block) != AES128(
            bytes(16)
        ).encrypt_block(block)


class TestPKCS7:
    def test_pad_lengths(self):
        assert len(pkcs7_pad(b"")) == 16
        assert len(pkcs7_pad(b"x" * 15)) == 16
        assert len(pkcs7_pad(b"x" * 16)) == 32  # always at least one byte

    @given(st.binary(max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, data):
        assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_corrupt_padding_rejected(self):
        padded = bytearray(pkcs7_pad(b"hello"))
        padded[-1] = 0
        with pytest.raises(ValueError):
            pkcs7_unpad(bytes(padded))
        padded[-1] = 17
        with pytest.raises(ValueError):
            pkcs7_unpad(bytes(padded))

    def test_inconsistent_padding_bytes_rejected(self):
        padded = bytearray(pkcs7_pad(b"hello"))
        padded[-2] ^= 0xFF
        with pytest.raises(ValueError):
            pkcs7_unpad(bytes(padded))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            pkcs7_unpad(b"")


class TestCBC:
    @given(st.binary(max_size=300), st.binary(min_size=16, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, plaintext, iv):
        cipher = AES128(KEY)
        ciphertext = cbc_encrypt(cipher, iv, plaintext)
        assert cbc_decrypt(cipher, iv, ciphertext) == plaintext

    def test_equal_plaintexts_differ_under_different_ivs(self):
        cipher = AES128(KEY)
        data = b"the same subtree bytes"
        first = cbc_encrypt(cipher, b"\x01" * 16, data)
        second = cbc_encrypt(cipher, b"\x02" * 16, data)
        assert first != second

    def test_ciphertext_is_block_aligned(self):
        cipher = AES128(KEY)
        ciphertext = cbc_encrypt(cipher, bytes(16), b"xyz")
        assert len(ciphertext) % 16 == 0

    def test_iv_length_enforced(self):
        cipher = AES128(KEY)
        with pytest.raises(ValueError):
            cbc_encrypt(cipher, b"short", b"data")
        with pytest.raises(ValueError):
            cbc_decrypt(cipher, b"short", bytes(16))

    def test_unaligned_ciphertext_rejected(self):
        cipher = AES128(KEY)
        with pytest.raises(ValueError):
            cbc_decrypt(cipher, bytes(16), b"x" * 15)
