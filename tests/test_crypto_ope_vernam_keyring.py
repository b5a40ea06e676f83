"""Tests for order-preserving encryption, the tag cipher and the keyring."""

import hmac as std_hmac
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keyring import ClientKeyring
from repro.crypto.ope import OrderPreservingEncryption
from repro.crypto.vernam import DeterministicTagCipher, VernamCipher


def small_ope(key: bytes = b"k" * 16) -> OrderPreservingEncryption:
    return OrderPreservingEncryption(key, domain_bits=16, expansion_bits=8)


class TestOPE:
    def test_strictly_monotone_on_sample(self):
        ope = small_ope()
        values = [0, 1, 2, 17, 500, 40_000, (1 << 16) - 1]
        ciphertexts = [ope.encrypt_int(v) for v in values]
        assert ciphertexts == sorted(ciphertexts)
        assert len(set(ciphertexts)) == len(values)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 16) - 1),
            min_size=2,
            max_size=30,
            unique=True,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_order_preservation_property(self, values):
        ope = small_ope()
        encrypted = {v: ope.encrypt_int(v) for v in values}
        ordered = sorted(values)
        for smaller, larger in zip(ordered, ordered[1:]):
            assert encrypted[smaller] < encrypted[larger]

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    @settings(max_examples=40, deadline=None)
    def test_decrypt_inverts(self, value):
        ope = small_ope()
        assert ope.decrypt_int(ope.encrypt_int(value)) == value

    def test_invalid_ciphertext_rejected(self):
        ope = small_ope()
        valid = ope.encrypt_int(100)
        sibling = ope.encrypt_int(101)
        # Some integer strictly between two consecutive ciphertexts cannot
        # decrypt (the range is larger than the domain).
        if sibling - valid > 1:
            with pytest.raises(ValueError):
                ope.decrypt_int(valid + 1)

    def test_key_separation(self):
        a = small_ope(b"a" * 16)
        b = small_ope(b"b" * 16)
        values = list(range(0, 1000, 97))
        assert [a.encrypt_int(v) for v in values] != [
            b.encrypt_int(v) for v in values
        ]

    def test_domain_bounds_enforced(self):
        ope = small_ope()
        with pytest.raises(ValueError):
            ope.encrypt_int(-1)
        with pytest.raises(ValueError):
            ope.encrypt_int(1 << 16)

    def test_float_interface(self):
        ope = OrderPreservingEncryption(b"k" * 16)
        low = ope.encrypt_float(23.45)
        high = ope.encrypt_float(24.35)
        assert low < high
        assert abs(ope.decrypt_float(low) - 23.45) < 1e-9

    def test_float_quantization_distinguishes_close_values(self):
        ope = OrderPreservingEncryption(b"k" * 16)
        assert ope.encrypt_float(1.00001) < ope.encrypt_float(1.00002)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            OrderPreservingEncryption(b"k" * 16, domain_bits=2)
        with pytest.raises(ValueError):
            OrderPreservingEncryption(b"k" * 16, expansion_bits=64)

    def test_deterministic_across_instances(self):
        first = small_ope()
        second = small_ope()
        for value in (0, 5, 1234):
            assert first.encrypt_int(value) == second.encrypt_int(value)


def bisect_encrypt(key, point, domain_bits=44, expansion_bits=16):
    """The OPE function as ``crypto/ope.py``'s docstring defines it, in a
    straight line: recursive bisection, one stdlib HMAC-SHA256 per
    rectangle (its first 64 bits), no trie, no batch, no ``repro`` code."""

    def descend(domain_low, domain_high, range_low, range_high):
        if domain_low == domain_high:
            return range_low
        domain_mid = (domain_low + domain_high) // 2
        # Both halves keep at least as much range as they have points.
        lowest = range_low + (domain_mid - domain_low)
        highest = range_high - (domain_high - domain_mid)
        digest = std_hmac.digest(
            key,
            struct.pack("<4Q", domain_low, domain_high, range_low, range_high),
            "sha256",
        )
        draw = int.from_bytes(digest[:8], "big")
        range_mid = lowest + draw % (highest - lowest + 1)
        if point <= domain_mid:
            return descend(domain_low, domain_mid, range_low, range_mid)
        return descend(domain_mid + 1, domain_high, range_mid + 1, range_high)

    return descend(
        0, (1 << domain_bits) - 1, 0, (1 << (domain_bits + expansion_bits)) - 1
    )


class TestOPETrie:
    """The lazily sampled function is a trie of rectangles, not a table.

    The ciphertexts are pinned twice: as literals, so a change of PRF or
    of rectangle encoding shows in a diff, and against
    :func:`bisect_encrypt`, so the literals are not merely what the trie
    happens to return.  ``PINNED_V2`` is what the same points encrypted to
    under hosted format 2 (SipHash-2-4 per rectangle), kept to show what
    format 3 moved.
    """

    PINNED_KEY = b"pinned-ope-key-0123456789abcdef"
    PINNED_POINTS = [
        0, 1, 2, (1 << 43) - 1, 1 << 43, (1 << 43) + 1,
        (1 << 43) + 1_000_000, (1 << 43) + 123_456_789_012,
        (1 << 44) - 2, (1 << 44) - 1,
    ]
    PINNED_CIPHERTEXTS = [
        0, 3, 4, 242258418982159485, 242258418982204708,
        242258418982204709, 242258418984130204, 256169437140486219,
        1152921504606846916, 1152921504606846948,
    ]
    PINNED_FLOATS = {
        -12.5: 242217909687518451,
        0.000001: 242258418982204709,
        1999.25: 242258750176228242,
    }
    PINNED_SMALL = [0, 1, 2, 22, 17544, 13967341, 16777210]
    PINNED_V2 = {
        "ciphertexts": [
            0, 2, 6, 1104606774525459038, 1104606774525459039,
            1104606774525459420, 1104606941723674884, 1106221912429818770,
            1152921504606846974, 1152921504606846975,
        ],
        "floats": {
            -12.5: 1104606760690681381,
            0.000001: 1104606774525459420,
            1999.25: 1104659682540509000,
        },
        "small": [0, 221, 227, 1597, 16072, 15743423, 16777214],
    }

    def test_ciphertexts_pinned_from_the_memo_implementation(self):
        ope = OrderPreservingEncryption(self.PINNED_KEY)
        # Largest first, so no ciphertext depends on the order of filling.
        for point, ciphertext in reversed(
            list(zip(self.PINNED_POINTS, self.PINNED_CIPHERTEXTS))
        ):
            assert ope.encrypt_int(point) == ciphertext
            assert bisect_encrypt(self.PINNED_KEY, point) == ciphertext
        assert ope.encrypt_many(self.PINNED_POINTS) == self.PINNED_CIPHERTEXTS
        for value, ciphertext in self.PINNED_FLOATS.items():
            assert ope.encrypt_float(value) == ciphertext
            assert (
                bisect_encrypt(self.PINNED_KEY, ope.quantize(value))
                == ciphertext
            )
        small_points = [0, 1, 2, 17, 500, 40_000, (1 << 16) - 1]
        assert [
            small_ope().encrypt_int(v) for v in small_points
        ] == self.PINNED_SMALL
        assert [
            bisect_encrypt(b"k" * 16, v, domain_bits=16, expansion_bits=8)
            for v in small_points
        ] == self.PINNED_SMALL
        assert self.PINNED_CIPHERTEXTS != self.PINNED_V2["ciphertexts"]

    @given(st.integers(0, (1 << 16) - 1))
    @settings(max_examples=40, deadline=None)
    def test_trie_is_the_straight_line_bisection(self, point):
        assert small_ope().encrypt_int(point) == bisect_encrypt(
            b"k" * 16, point, domain_bits=16, expansion_bits=8
        )

    @given(st.lists(st.integers(0, (1 << 16) - 1), max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_encrypt_many_is_encrypt_int_per_element(self, values):
        batch = small_ope().encrypt_many(values)
        assert batch == [small_ope().encrypt_int(v) for v in values]
        # Duplicates, any order, and a generator are all fine.
        assert small_ope().encrypt_many(v for v in values) == batch

    def test_every_batch_of_two_on_a_tiny_domain_cold_and_warm(self):
        """Batches that share all, some or none of their walk, whether the
        nodes they cross were sampled before or not."""
        def tiny():
            return OrderPreservingEncryption(
                b"t" * 16, domain_bits=4, expansion_bits=2
            )

        expected = [tiny().encrypt_int(point) for point in range(16)]
        warm = tiny()
        assert warm.encrypt_many(range(16)) == expected
        for a in range(16):
            for b in range(16):
                want = [expected[a], expected[b]]
                assert tiny().encrypt_many([a, b]) == want
                assert warm.encrypt_many([a, b]) == want
        assert tiny().encrypt_many([]) == []
        assert tiny().encrypt_many([9, 9, 9]) == [expected[9]] * 3

    def test_whole_small_domain_strictly_monotone_and_invertible(self):
        ope = OrderPreservingEncryption(
            b"s" * 16, domain_bits=8, expansion_bits=4
        )
        ciphertexts = ope.encrypt_many(range(256))
        assert all(a < b for a, b in zip(ciphertexts, ciphertexts[1:]))
        valid = {c: point for point, c in enumerate(ciphertexts)}
        for candidate in range(ope.range_size):
            if candidate in valid:
                assert ope.decrypt_int(candidate) == valid[candidate]
            else:
                with pytest.raises(ValueError):
                    ope.decrypt_int(candidate)

    def test_decrypt_on_a_cold_trie_matches_a_warm_one(self):
        warm = small_ope()
        ciphertexts = warm.encrypt_many(range(0, 1 << 16, 997))
        cold = small_ope()
        assert [cold.decrypt_int(c) for c in ciphertexts] == list(
            range(0, 1 << 16, 997)
        )

    def test_bad_batch_raises_before_any_output(self):
        ope = small_ope()
        sampled = []
        original = ope._split
        ope._split = lambda *rect: sampled.append(rect) or original(*rect)
        for bad in (-1, 1 << 16):
            with pytest.raises(ValueError, match="outside OPE domain"):
                ope.encrypt_many([5, 6, bad])
        assert sampled == []  # nothing was encrypted on the way to the error

    def test_no_result_table_and_no_entry_cap(self):
        ope = small_ope()
        assert not hasattr(ope, "_memo")
        ope.encrypt_many(range(2000))
        # The only state is the trie: lists of [mid, image, left, right].
        node = ope._root
        assert isinstance(node, list) and len(node) == 4
        assert not any(
            isinstance(value, dict) for value in vars(ope).values()
        )

    def test_two_threads_filling_one_trie_agree(self):
        import sys
        import threading

        shared = small_ope()
        points = list(range(0, 1 << 16, 13))
        results: dict[int, list[int]] = {}

        def fill(slot: int, order: list[int]) -> None:
            encrypted = shared.encrypt_many(order)
            results[slot] = [
                c for _, c in sorted(zip(order, encrypted))
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=fill, args=(0, points)),
                threading.Thread(target=fill, args=(1, points[::-1])),
                threading.Thread(target=fill, args=(2, points[::2] + points[1::2])),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        expected = [small_ope().encrypt_int(p) for p in sorted(points)]
        assert results[0] == results[1] == results[2] == expected
        # ... and the trie they raced to fill is the function itself.
        assert shared.encrypt_many(sorted(points)) == expected


class TestVernam:
    def test_xor_roundtrip(self):
        pad = bytes(range(32))
        message = b"attack at dawn"
        ciphertext = VernamCipher.encrypt(message, pad)
        assert VernamCipher.decrypt(ciphertext, pad) == message

    def test_short_pad_rejected(self):
        with pytest.raises(ValueError):
            VernamCipher.encrypt(b"long message", b"pad")

    def test_perfect_secrecy_shape(self):
        # Any ciphertext is reachable from any equal-length plaintext under
        # some pad — the textbook perfect-security argument.
        message_a, message_b = b"yes", b"nor"
        ciphertext = VernamCipher.encrypt(message_a, b"\x10\x20\x30")
        pad_b = bytes(m ^ c for m, c in zip(message_b, ciphertext))
        assert VernamCipher.encrypt(message_b, pad_b) == ciphertext


class TestTagCipher:
    def test_deterministic_per_tag(self):
        cipher = DeterministicTagCipher(b"t" * 32)
        assert cipher.encrypt_tag("SSN") == cipher.encrypt_tag("SSN")

    def test_distinct_tags_distinct_tokens(self):
        cipher = DeterministicTagCipher(b"t" * 32)
        tags = ["SSN", "insurance", "pname", "disease", "@coverage", "a", "b"]
        tokens = {cipher.encrypt_tag(tag) for tag in tags}
        assert len(tokens) == len(tags)

    def test_token_shape(self):
        cipher = DeterministicTagCipher(b"t" * 32, token_length=12)
        token = cipher.encrypt_tag("patient")
        assert len(token) == 12
        assert all(c.isalnum() and not c.islower() for c in token)

    def test_decrypt_known(self):
        cipher = DeterministicTagCipher(b"t" * 32)
        token = cipher.encrypt_tag("treat")
        assert cipher.decrypt_tag(token) == "treat"

    def test_decrypt_unknown_rejected(self):
        cipher = DeterministicTagCipher(b"t" * 32)
        with pytest.raises(ValueError):
            cipher.decrypt_tag("NEVERSEEN1")

    def test_key_separation(self):
        a = DeterministicTagCipher(b"a" * 32)
        b = DeterministicTagCipher(b"b" * 32)
        assert a.encrypt_tag("SSN") != b.encrypt_tag("SSN")

    def test_token_length_validated(self):
        with pytest.raises(ValueError):
            DeterministicTagCipher(b"t" * 32, token_length=2)


class TestKeyring:
    def test_minimum_key_length(self):
        with pytest.raises(ValueError):
            ClientKeyring(b"short")

    def test_determinism(self):
        a = ClientKeyring(b"m" * 16)
        b = ClientKeyring(b"m" * 16)
        assert a.block_iv(3) == b.block_iv(3)
        assert a.tag_cipher.encrypt_tag("x") == b.tag_cipher.encrypt_tag("x")
        assert a.ope.encrypt_int(5) == b.ope.encrypt_int(5)
        assert a.dsi_weight_stream().uniform() == b.dsi_weight_stream().uniform()

    def test_purpose_separation(self):
        keyring = ClientKeyring(b"m" * 16)
        assert keyring.block_iv(1) != keyring.block_iv(2)
        weights = keyring.dsi_weight_stream()
        decoys = keyring.decoy_stream()
        assert weights.uniform() != decoys.uniform()

    def test_a_write_stamp_separates_every_draw_of_a_write(self):
        keyring = ClientKeyring(b"m" * 16)
        # An unstamped block keeps the id-only derivation, memo or not.
        assert keyring.block_iv(3) == keyring.block_iv(3, None)
        assert keyring.block_iv(3) == ClientKeyring(b"m" * 16).block_iv(3)
        ivs = [keyring.block_iv(3), keyring.block_iv(3, 1),
               keyring.block_iv(3, 2), keyring.block_iv(4, 1),
               keyring.block_iv(31), keyring.block_iv(1, 3)]
        assert len(set(ivs)) == len(ivs)
        assert keyring.block_iv(3, 1) == ClientKeyring(b"m" * 16).block_iv(3, 1)
        for stream in (keyring.decoy_stream, keyring.dsi_weight_stream):
            assert stream().uint(64) == stream().uint(64)
        draws = [
            keyring.decoy_stream().uint(64),
            keyring.decoy_stream(3, 1).uint(64),
            keyring.decoy_stream(3, 2).uint(64),
            keyring.decoy_stream(31).uint(64),
            keyring.dsi_weight_stream().uint(64),
            keyring.dsi_weight_stream(1).uint(64),
            keyring.dsi_weight_stream(2).uint(64),
        ]
        assert len(set(draws)) == len(draws)

    def test_field_streams_independent(self):
        keyring = ClientKeyring(b"m" * 16)
        a = keyring.opess_stream("age")
        b = keyring.opess_stream("income")
        assert a.uint(64) != b.uint(64)

    def test_block_cipher_roundtrip(self):
        keyring = ClientKeyring(b"m" * 16)
        block = b"\x42" * 16
        cipher = keyring.block_cipher
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block
