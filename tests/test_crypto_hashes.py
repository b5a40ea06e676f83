"""Tests for SHA-256, HMAC, SipHash and the PRF/PRG layer.

The hash implementations are cross-checked against the standard library and
published test vectors — the strongest evidence a from-scratch
implementation can give.
"""

import hashlib
import hmac as std_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac import derive_key, hmac_sha256
from repro.crypto.prf import PRF, DeterministicRandom
from repro.workloads.rng import SipPRF, siphash24
from hmac_spec import hmac_sha256_spec, sha256, sha256_hex


class TestSHA256:
    @pytest.mark.parametrize(
        "message,expected",
        [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ],
    )
    def test_nist_vectors(self, message, expected):
        assert sha256_hex(message) == expected

    @given(st.binary(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_matches_hashlib(self, message):
        assert sha256(message) == hashlib.sha256(message).digest()

    def test_padding_boundaries(self):
        # Lengths that straddle the 55/56/64-byte padding edges.
        for length in (54, 55, 56, 57, 63, 64, 65, 119, 120):
            message = b"q" * length
            assert sha256(message) == hashlib.sha256(message).digest()

    def test_rejects_str(self):
        with pytest.raises(TypeError):
            sha256("text")  # type: ignore[arg-type]


class TestHMAC:
    @given(st.binary(min_size=1, max_size=100), st.binary(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_stdlib(self, key, message):
        expected = std_hmac.new(key, message, hashlib.sha256).digest()
        assert hmac_sha256(key, message) == expected
        assert hmac_sha256_spec(key, message) == expected

    def test_long_key_hashed_first(self):
        key = b"k" * 200
        expected = std_hmac.new(key, b"m", hashlib.sha256).digest()
        assert hmac_sha256(key, b"m") == expected
        assert hmac_sha256_spec(key, b"m") == expected

    def test_rfc4231_case_1(self):
        key = b"\x0b" * 20
        for function in (hmac_sha256, hmac_sha256_spec):
            assert function(key, b"Hi There").hex() == (
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
            )


class TestDeriveKey:
    def test_deterministic(self):
        assert derive_key(b"m" * 16, "a", "b") == derive_key(b"m" * 16, "a", "b")

    def test_label_separation(self):
        master = b"m" * 16
        assert derive_key(master, "a", "bc") != derive_key(master, "ab", "c")
        assert derive_key(master, "x") != derive_key(master, "y")

    def test_key_separation(self):
        assert derive_key(b"m" * 16, "a") != derive_key(b"n" * 16, "a")


class TestSipHash:
    def test_reference_vectors(self):
        # Vectors from the SipHash paper (Appendix A) for key 00..0f.
        key = bytes(range(16))
        assert siphash24(key, b"") == 0x726FDB47DD0E0E31
        assert siphash24(key, bytes([0])) == 0x74F839C593DC67FD
        assert siphash24(key, bytes(range(8))) == 0x93F5F5799A932462
        assert siphash24(key, bytes(range(15))) == 0xA129CA6149BE45E5

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            siphash24(b"short", b"")

    @given(st.binary(max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_output_is_64_bit(self, message):
        value = siphash24(bytes(range(16)), message)
        assert 0 <= value < (1 << 64)

    def test_prf_wrapper(self):
        prf = SipPRF(b"0123456789abcdef")
        assert prf.integer(b"x") == prf.integer(b"x")
        assert prf.integer(b"x") != prf.integer(b"y")
        assert len(prf.block(b"z")) == 8


class TestPRF:
    def test_integer_truncation(self):
        prf = PRF(b"key")
        assert 0 <= prf.integer(b"m", bits=8) < 256
        assert 0 <= prf.integer(b"m", bits=64) < (1 << 64)

    def test_integer_bits_validated(self):
        prf = PRF(b"key")
        with pytest.raises(ValueError):
            prf.integer(b"m", bits=0)
        with pytest.raises(ValueError):
            prf.integer(b"m", bits=300)


class TestDeterministicRandom:
    def test_streams_reproducible(self):
        a = DeterministicRandom(b"k" * 16, "s")
        b = DeterministicRandom(b"k" * 16, "s")
        assert [a.uint(32) for _ in range(20)] == [b.uint(32) for _ in range(20)]

    def test_label_separation(self):
        a = DeterministicRandom(b"k" * 16, "s1")
        b = DeterministicRandom(b"k" * 16, "s2")
        assert [a.uint(32) for _ in range(5)] != [b.uint(32) for _ in range(5)]

    def test_uniform_range(self):
        stream = DeterministicRandom(b"k" * 16)
        for _ in range(200):
            value = stream.uniform(0.25, 0.5)
            assert 0.25 <= value < 0.5

    def test_randint_inclusive_bounds(self):
        stream = DeterministicRandom(b"k" * 16)
        draws = {stream.randint(3, 5) for _ in range(100)}
        assert draws == {3, 4, 5}

    def test_randint_single_point(self):
        stream = DeterministicRandom(b"k" * 16)
        assert stream.randint(7, 7) == 7

    def test_randint_validates(self):
        stream = DeterministicRandom(b"k" * 16)
        with pytest.raises(ValueError):
            stream.randint(5, 3)

    def test_shuffle_permutes(self):
        stream = DeterministicRandom(b"k" * 16)
        items = list(range(30))
        shuffled = list(items)
        stream.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    def test_choice_and_token(self):
        stream = DeterministicRandom(b"k" * 16)
        assert stream.choice(["a"]) == "a"
        token = stream.token(6)
        assert len(token) == 6 and token.isalpha()
        with pytest.raises(ValueError):
            stream.choice([])

    def test_bytes_negative_rejected(self):
        stream = DeterministicRandom(b"k" * 16)
        with pytest.raises(ValueError):
            stream.bytes(-1)

    def test_randint_statistically_uniform(self):
        stream = DeterministicRandom(b"k" * 16)
        counts = [0] * 4
        for _ in range(4000):
            counts[stream.randint(0, 3)] += 1
        assert all(800 < count < 1200 for count in counts)
