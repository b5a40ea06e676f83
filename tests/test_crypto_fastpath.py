"""Property tests for the crypto fast paths against their spec twins.

Every fast path must be a pure performance change: the T-table AES and
the byte-plane batch kernel, in both directions, byte-identical to the
from-scratch FIPS-197 spec implementation on every key and block (the
official Appendix C vector passing through all of them), the word-wise CBC
round-tripping arbitrary payloads including empty and non-block-aligned
ones, the lock-step CBC encryption equal to a block-by-block spec chain,
the batched CBC decryption equal to the one-at-a-time form, and the
C-backed and pre-keyed HMACs equal to the from-scratch one — with
``derive_key`` pinned by literals, so that hosted bytes can never drift.
"""

import hashlib
import hmac as std_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aes
from repro.crypto.aes import (
    _PLANE_MIN_BLOCKS,
    AES128,
    _expand_key_cached,
    aes128_for_key,
)
from repro.crypto.hmac import derive_key, hmac_sha256
from repro.crypto.keyring import ClientKeyring
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_decrypt_many,
    cbc_encrypt,
    cbc_encrypt_many,
    pkcs7_pad,
)
from repro.crypto.prf import PRF
from repro.obs import MetricsRegistry
from aes_spec import decrypt_block_spec, encrypt_block_spec
from hmac_spec import hmac_sha256_spec

#: Reads of the process counter total.
metrics = MetricsRegistry()

# FIPS-197 Appendix C.1 (AES-128) known-answer vector.
_FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
_FIPS_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
_FIPS_CIPHER = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

_keys = st.binary(min_size=16, max_size=16)
_blocks = st.binary(min_size=16, max_size=16)
_ivs = st.binary(min_size=16, max_size=16)
_payloads = st.binary(min_size=0, max_size=200)


class ReferenceAES128(AES128):
    """An :class:`AES128` whose block interface runs the spec path.

    Exists so the modes can exercise the seed-equivalent slow path
    through the very same call surface.
    """

    def encrypt_block(self, plaintext: bytes) -> bytes:
        return encrypt_block_spec(self, plaintext)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        return decrypt_block_spec(self, ciphertext)

    #: Multi-block calls stay on the spec path at every length: the
    #: scalar loops go through the block methods above.
    _encrypt_blocks_planes = AES128._encrypt_blocks_scalar
    _decrypt_blocks_planes = AES128._decrypt_blocks_scalar


def _cbc_encrypt_spec(cipher, iv, plaintext):
    """CBC by the definition: one spec-path block after another."""
    padded = pkcs7_pad(plaintext)
    previous = iv
    out = b""
    for offset in range(0, len(padded), 16):
        block = padded[offset : offset + 16]
        previous = encrypt_block_spec(
            cipher, bytes(left ^ right for left, right in zip(block, previous))
        )
        out += previous
    return out


class TestFastPathEquivalence:
    def test_fips_197_appendix_c_fast_path(self):
        cipher = AES128(_FIPS_KEY)
        assert cipher.encrypt_block(_FIPS_PLAIN) == _FIPS_CIPHER
        assert cipher.decrypt_block(_FIPS_CIPHER) == _FIPS_PLAIN

    def test_fips_197_appendix_c_spec_path(self):
        cipher = ReferenceAES128(_FIPS_KEY)
        assert cipher.encrypt_block(_FIPS_PLAIN) == _FIPS_CIPHER
        assert cipher.decrypt_block(_FIPS_CIPHER) == _FIPS_PLAIN

    @given(_keys, _blocks)
    @settings(max_examples=60, deadline=None)
    def test_encrypt_matches_spec(self, key, block):
        cipher = AES128(key)
        assert cipher.encrypt_block(block) == encrypt_block_spec(cipher, block)

    @given(_keys, _blocks)
    @settings(max_examples=60, deadline=None)
    def test_decrypt_matches_spec(self, key, block):
        cipher = AES128(key)
        assert cipher.decrypt_block(block) == decrypt_block_spec(cipher, block)

    @given(_keys, _blocks)
    @settings(max_examples=40, deadline=None)
    def test_fast_round_trip(self, key, block):
        cipher = AES128(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @given(_keys, _blocks)
    @settings(max_examples=40, deadline=None)
    def test_reference_subclass_agrees(self, key, block):
        """ReferenceAES128 (the differential oracle) is the same cipher."""
        fast = AES128(key)
        spec = ReferenceAES128(key)
        assert fast.encrypt_block(block) == spec.encrypt_block(block)
        assert spec.decrypt_block(fast.encrypt_block(block)) == block


class TestBytePlaneKernelEncrypt:
    """``encrypt_blocks``: plane kernel == T-table == FIPS-197 spec."""

    @given(_keys, st.integers(1, 300), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_three_paths_agree(self, key, block_count, random):
        cipher = AES128(key)
        data = random.randbytes(16 * block_count)
        spec = b"".join(
            encrypt_block_spec(cipher, data[offset : offset + 16])
            for offset in range(0, len(data), 16)
        )
        assert cipher._encrypt_blocks_planes(data) == spec
        assert cipher._encrypt_blocks_scalar(data) == spec
        assert cipher.encrypt_blocks(data) == spec
        assert cipher.decrypt_blocks(spec) == data

    def test_fips_197_appendix_c_through_the_planes(self):
        cipher = AES128(_FIPS_KEY)
        assert cipher._encrypt_blocks_planes(_FIPS_PLAIN * 3) == _FIPS_CIPHER * 3

    def test_both_sides_of_the_size_threshold(self, monkeypatch):
        cipher = AES128(_FIPS_KEY)
        planes = []
        kernel = aes._plane_rounds
        monkeypatch.setattr(
            aes, "_plane_rounds",
            lambda data, *rest: planes.append(len(data)) or kernel(data, *rest),
        )
        for block_count in (0, 1, _PLANE_MIN_BLOCKS - 1, _PLANE_MIN_BLOCKS):
            data = (bytes(range(256)) * block_count)[: 16 * block_count]
            assert cipher.encrypt_blocks(data) == cipher._encrypt_blocks_scalar(data)
        assert planes == [16 * _PLANE_MIN_BLOCKS]

    def test_partial_block_rejected(self):
        for cipher in (AES128(_FIPS_KEY), ReferenceAES128(_FIPS_KEY)):
            with pytest.raises(ValueError):
                cipher.encrypt_blocks(bytes(17))

    def test_reference_cipher_stays_on_the_spec_path(self, monkeypatch):
        """Neither the forward plane kernel nor the T-table encryptor is
        reachable from the oracle, at any batch width."""
        spec = ReferenceAES128(_FIPS_KEY)

        def forbidden(*_):
            raise AssertionError("fast path reached from ReferenceAES128")

        monkeypatch.setattr(aes, "_plane_rounds", forbidden)
        monkeypatch.setattr(AES128, "encrypt_block", forbidden)
        data = _FIPS_PLAIN * (4 * _PLANE_MIN_BLOCKS)
        assert spec.encrypt_blocks(data) == _FIPS_CIPHER * (4 * _PLANE_MIN_BLOCKS)
        items = [(bytes([n]) * 16, bytes(40 * n)) for n in range(2 * _PLANE_MIN_BLOCKS)]
        assert cbc_encrypt_many(spec, items) == [
            _cbc_encrypt_spec(spec, iv, plaintext) for iv, plaintext in items
        ]


class TestBytePlaneKernel:
    """``decrypt_blocks``: plane kernel == T-table == FIPS-197 spec."""

    @given(_keys, st.integers(1, 300), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_three_paths_agree(self, key, block_count, random):
        cipher = AES128(key)
        data = random.randbytes(16 * block_count)
        spec = b"".join(
            decrypt_block_spec(cipher, data[offset : offset + 16])
            for offset in range(0, len(data), 16)
        )
        assert cipher._decrypt_blocks_planes(data) == spec
        assert cipher._decrypt_blocks_scalar(data) == spec
        assert cipher.decrypt_blocks(data) == spec

    def test_fips_197_appendix_c_through_the_planes(self):
        cipher = AES128(_FIPS_KEY)
        assert cipher._decrypt_blocks_planes(_FIPS_CIPHER * 3) == _FIPS_PLAIN * 3

    def test_both_sides_of_the_size_threshold(self):
        cipher = AES128(_FIPS_KEY)
        for block_count in (0, 1, _PLANE_MIN_BLOCKS - 1, _PLANE_MIN_BLOCKS):
            data = bytes(range(256)) * block_count
            data = data[: 16 * block_count]
            assert cipher.decrypt_blocks(data) == cipher._decrypt_blocks_scalar(data)

    def test_partial_block_rejected(self):
        for cipher in (AES128(_FIPS_KEY), ReferenceAES128(_FIPS_KEY)):
            with pytest.raises(ValueError):
                cipher.decrypt_blocks(bytes(17))

    def test_reference_cipher_stays_on_the_spec_path(self, monkeypatch):
        """The oracle must be independent of what it checks: a multi-block
        call on the reference cipher must not reach either fast path."""
        spec = ReferenceAES128(_FIPS_KEY)

        def forbidden(*_):
            raise AssertionError("fast path reached from ReferenceAES128")

        monkeypatch.setattr(AES128, "_decrypt_blocks_planes", forbidden)
        monkeypatch.setattr(AES128, "decrypt_block", forbidden)
        data = _FIPS_CIPHER * (4 * _PLANE_MIN_BLOCKS)
        assert spec.decrypt_blocks(data) == _FIPS_PLAIN * (4 * _PLANE_MIN_BLOCKS)
        payload = bytes(1000)
        iv = bytes(16)
        assert cbc_decrypt(spec, iv, cbc_encrypt(spec, iv, payload)) == payload


_batches = st.lists(
    st.tuples(_ivs, st.binary(min_size=0, max_size=400)), min_size=0, max_size=12
)


class TestBatchedCbcEncrypt:
    """``cbc_encrypt_many`` == a chained ``encrypt_block_spec`` reference."""

    @given(_keys, _batches)
    @settings(max_examples=60, deadline=None)
    def test_equals_the_spec_chain(self, key, batch):
        cipher = AES128(key)
        expected = [_cbc_encrypt_spec(cipher, iv, payload) for iv, payload in batch]
        assert cbc_encrypt_many(cipher, batch) == expected
        assert [cbc_encrypt(cipher, iv, payload) for iv, payload in batch] == expected

    def test_ragged_edges(self):
        cipher = AES128(_FIPS_KEY)
        iv = bytes(range(16))
        assert cbc_encrypt_many(cipher, []) == []
        for batch in (
            [(iv, b"")],
            [(iv, b""), (bytes(16), b""), (iv, b"x")],
            [(iv, bytes(1000))],
        ):
            assert cbc_encrypt_many(cipher, batch) == [
                _cbc_encrypt_spec(cipher, chain_iv, payload)
                for chain_iv, payload in batch
            ]

    def test_width_crosses_the_threshold_between_steps(self, monkeypatch):
        """Step 0 is wide enough for the planes, later steps are not."""
        cipher = AES128(_FIPS_KEY)
        widths = []
        encrypt_blocks = AES128.encrypt_blocks
        monkeypatch.setattr(
            AES128, "encrypt_blocks",
            lambda self, data: widths.append(len(data) // 16)
            or encrypt_blocks(self, data),
        )
        short = [(bytes([n]) * 16, bytes([n]) * n) for n in range(_PLANE_MIN_BLOCKS)]
        long = [(bytes(16), bytes(100)), (bytes([7]) * 16, bytes(range(90)))]
        batch = short[:3] + long[:1] + short[3:] + long[1:]
        assert cbc_encrypt_many(cipher, batch) == [
            _cbc_encrypt_spec(cipher, iv, payload) for iv, payload in batch
        ]
        assert widths == [_PLANE_MIN_BLOCKS + 2] + [2] * 5 + [1]

    def test_blocks_encrypted_counts_the_same(self):
        cipher = AES128(_FIPS_KEY)
        batch = [(bytes(16), bytes(size)) for size in (0, 15, 16, 300)]
        before = metrics.counter_values()
        for iv, payload in batch:
            cbc_encrypt(cipher, iv, payload)
        one_at_a_time = metrics.counters_delta(before)["blocks_encrypted"]
        before = metrics.counter_values()
        cbc_encrypt_many(cipher, batch)
        assert metrics.counters_delta(before)["blocks_encrypted"] == one_at_a_time
        assert one_at_a_time == 1 + 1 + 2 + 19

    def test_bad_iv_rejected_before_any_cipher_call(self):
        cipher = AES128(_FIPS_KEY)
        before = metrics.counter_values()
        with pytest.raises(ValueError):
            cbc_encrypt_many(cipher, [(bytes(16), bytes(300)), (b"short", b"x")])
        assert metrics.counters_delta(before).get("blocks_encrypted", 0) == 0


class TestBatchedCbc:
    """``cbc_decrypt_many`` == ``[cbc_decrypt(...)]``."""

    @given(_keys, _batches)
    @settings(max_examples=60, deadline=None)
    def test_equals_one_at_a_time(self, key, batch):
        cipher = AES128(key)
        items = [(iv, cbc_encrypt(cipher, iv, payload)) for iv, payload in batch]
        expected = [cbc_decrypt(cipher, iv, ct) for iv, ct in items]
        assert expected == [payload for _, payload in batch]
        assert cbc_decrypt_many(cipher, items) == expected

    def test_single_block_payload_and_counter(self):
        cipher = AES128(_FIPS_KEY)
        iv = bytes(range(16))
        items = [
            (iv, cbc_encrypt(cipher, iv, b"x")),  # one cipher block
            (iv, cbc_encrypt(cipher, iv, bytes(500))),
        ]
        before = metrics.counter_values()
        assert cbc_decrypt_many(cipher, items) == [b"x", bytes(500)]
        assert metrics.counters_delta(before)["blocks_decrypted"] == 1 + 32

    def test_bad_padding_member_fails_the_whole_batch(self):
        cipher = AES128(_FIPS_KEY)
        iv = bytes(16)
        good = cbc_encrypt(cipher, iv, bytes(300))
        bad = cbc_encrypt(cipher, iv, b"secret")[:-1] + b"\x00"
        with pytest.raises(ValueError) as single:
            cbc_decrypt(cipher, iv, bad)
        for items in ([(iv, good), (iv, bad)], [(iv, bad), (iv, good)]):
            with pytest.raises(ValueError) as batched:
                cbc_decrypt_many(cipher, items)
            assert str(batched.value) == str(single.value)

    @pytest.mark.parametrize(
        "bad_item", [(bytes(16), bytes(17)), (b"short", bytes(16))]
    )
    def test_malformed_member_rejected_before_any_cipher_call(self, bad_item):
        cipher = AES128(_FIPS_KEY)
        good = (bytes(16), cbc_encrypt(cipher, bytes(16), bytes(300)))
        with pytest.raises(ValueError) as single:
            cbc_decrypt(cipher, *bad_item)
        before = metrics.counter_values()
        with pytest.raises(ValueError) as batched:
            cbc_decrypt_many(cipher, [good, bad_item])
        assert str(batched.value) == str(single.value)
        assert metrics.counters_delta(before).get("blocks_decrypted", 0) == 0

    def test_empty_member_and_empty_batch(self):
        cipher = AES128(_FIPS_KEY)
        assert cbc_decrypt_many(cipher, []) == []
        with pytest.raises(ValueError):
            cbc_decrypt_many(cipher, [(bytes(16), b"")])


# RFC 4231 test cases 1-4, 6, 7 (case 5 is a truncated tag).
_RFC_4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\xaa" * 131,
     b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger "
     b"than block-size data. The key needs to be hashed before being "
     b"used by the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


class TestHmacPaths:
    """``hmac_sha256`` (C) == pre-keyed ``PRF`` == ``hmac_sha256_spec``
    (from scratch) == stdlib."""

    @pytest.mark.parametrize("key, message, digest", _RFC_4231)
    def test_rfc_4231_vectors(self, key, message, digest):
        assert hmac_sha256(key, message).hex() == digest
        assert hmac_sha256_spec(key, message).hex() == digest
        assert PRF(key)(message).hex() == digest

    @given(st.binary(max_size=200), st.binary(max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_random_inputs(self, key, message):
        expected = std_hmac.new(key, message, hashlib.sha256).digest()
        assert hmac_sha256(key, message) == expected
        assert hmac_sha256_spec(key, message) == expected
        assert hmac_sha256(bytearray(key), bytearray(message)) == expected

    @given(st.binary(max_size=200), st.lists(st.binary(max_size=300), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_pre_keyed_prf_equals_the_spec(self, key, messages):
        """Keys shorter and longer than SHA-256's block; repeated draws on
        one instance do not disturb each other."""
        prf = PRF(key)
        for message in messages + messages:
            assert prf(message) == hmac_sha256_spec(key, message)

    def test_derive_key_pinned(self):
        """Every hosted byte hangs off these: literals, not a comparison."""
        master = b"pinned-master-key-0123456789abcd"
        assert derive_key(master, "block").hex() == (
            "9b9de244b20f0c283ca1c61cc90d87f6c94c8916e5ce07866b54283c444b62e0"
        )
        assert derive_key(master, "block-iv", "17").hex() == (
            "41ff2c39cdaf51640e08498bbcbf3777517034543ca882084cd5695723162c6c"
        )
        assert derive_key(master, "a", "bc") != derive_key(master, "ab", "c")
        keyring = ClientKeyring(master)
        assert keyring.block_key_bytes().hex() == "9b9de244b20f0c283ca1c61cc90d87f6"
        assert keyring.block_iv(17).hex() == "41ff2c39cdaf51640e08498bbcbf3777"
        assert keyring.block_tag(17, b"payload").hex() == (
            "012d5fda88b374503db5a966bedd4bebaab7dcffd2713bf4dea9ab45eeb77ea5"
        )


class TestWordWiseModes:
    @given(_keys, _ivs, _payloads)
    @settings(max_examples=60, deadline=None)
    def test_cbc_round_trip(self, key, iv, payload):
        cipher = AES128(key)
        assert cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, payload)) == payload

    def test_cbc_empty_payload(self):
        cipher = AES128(_FIPS_KEY)
        iv = bytes(16)
        ciphertext = cbc_encrypt(cipher, iv, b"")
        assert len(ciphertext) == 16  # one full padding block
        assert cbc_decrypt(cipher, iv, ciphertext) == b""

    def test_cbc_non_aligned_payloads(self):
        cipher = AES128(_FIPS_KEY)
        iv = bytes(range(16))
        for size in (1, 15, 16, 17, 31, 33):
            payload = bytes(range(256))[:size]
            ciphertext = cbc_encrypt(cipher, iv, payload)
            assert len(ciphertext) % 16 == 0
            assert cbc_decrypt(cipher, iv, ciphertext) == payload


class TestCipherCaches:
    def test_key_schedule_cached_across_instances(self):
        key = b"cached-schedule!"
        _expand_key_cached.cache_clear()
        before = metrics.counter_values()["key_expansions"]
        AES128(key).encrypt_block(bytes(16))
        AES128(key).encrypt_block(bytes(16))
        assert metrics.counter_values()["key_expansions"] - before == 1

    def test_keyed_cipher_cache_shares_instances(self):
        key = b"shared-cipher-k!"
        assert aes128_for_key(key) is aes128_for_key(key)
        assert aes128_for_key(key) is not aes128_for_key(b"other-cipher-k!!")
