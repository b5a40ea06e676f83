"""Unit tests for the integrity envelope and the block MAC tags."""

import pytest

from repro.core.integrity import (
    MAGIC,
    OVERHEAD,
    TAG_BYTES,
    IntegrityError,
    TamperedRequestError,
    TamperedResponseError,
    seal,
    unseal,
)
from repro.core.system import QueryFailedError, SecureXMLSystem
from repro.crypto.hmac import derive_key, hmac_sha256
from repro.crypto.keyring import ClientKeyring
from repro.workloads.healthcare import build_healthcare_database
from repro.xmldb.node import Element, EncryptedBlockNode
from hmac_spec import hmac_sha256_spec

KEY = derive_key(b"integrity-test-master", "unit")


class TestFastHmac:
    """The C-backed hmac_sha256 is the *same function* as the from-scratch one."""

    @pytest.mark.parametrize("size", [0, 1, 55, 56, 63, 64, 65, 1000])
    def test_byte_identical_across_message_sizes(self, size):
        message = bytes(i % 251 for i in range(size))
        assert hmac_sha256(KEY, message) == hmac_sha256_spec(KEY, message)

    @pytest.mark.parametrize("key_size", [0, 1, 32, 64, 65, 200])
    def test_byte_identical_across_key_sizes(self, key_size):
        key = bytes(range(key_size % 256))[:key_size].ljust(key_size, b"k")
        assert hmac_sha256(key, b"msg") == hmac_sha256_spec(key, b"msg")

    def test_rejects_non_bytes(self):
        for function in (hmac_sha256, hmac_sha256_spec):
            with pytest.raises(TypeError):
                function("string", b"m")
            with pytest.raises(TypeError):
                function(KEY, "m")


class TestEnvelope:
    def test_round_trip(self):
        payload = b"the payload"
        blob = seal(KEY, payload)
        assert blob.startswith(MAGIC)
        assert len(blob) == OVERHEAD + len(payload)
        assert unseal(KEY, blob) == payload

    def test_empty_payload_round_trips(self):
        assert unseal(KEY, seal(KEY, b"")) == b""

    def test_every_byte_flip_detected(self):
        """Byte-level sweep: no single-byte tamper survives verification."""
        payload = b"short but structured: {\"a\": 1}"
        blob = seal(KEY, payload)
        for offset in range(len(blob)):
            for xor in (0x01, 0x80, 0xFF):
                mutated = bytearray(blob)
                mutated[offset] ^= xor
                with pytest.raises(TamperedResponseError):
                    unseal(KEY, bytes(mutated))

    def test_every_truncation_detected(self):
        blob = seal(KEY, b"payload under test")
        for length in range(len(blob)):
            with pytest.raises(TamperedResponseError):
                unseal(KEY, blob[:length])

    def test_extension_detected(self):
        blob = seal(KEY, b"payload")
        with pytest.raises(TamperedResponseError):
            unseal(KEY, blob + b"x")

    def test_wrong_key_detected(self):
        blob = seal(KEY, b"payload")
        other = derive_key(b"other-master", "unit")
        with pytest.raises(TamperedResponseError):
            unseal(other, blob)

    def test_error_type_is_selectable(self):
        with pytest.raises(TamperedRequestError):
            unseal(KEY, b"garbage", error=TamperedRequestError)

    def test_typed_errors_share_a_base(self):
        assert issubclass(TamperedResponseError, IntegrityError)
        assert issubclass(TamperedRequestError, IntegrityError)


class TestKeyDerivation:
    def test_session_keys_are_distinct_and_deterministic(self):
        keyring = ClientKeyring(b"master-key-for-session-tests!!!!")
        request_key, response_key = keyring.session_keys()
        assert request_key != response_key
        assert len(request_key) == TAG_BYTES
        again = ClientKeyring(b"master-key-for-session-tests!!!!")
        assert again.session_keys() == (request_key, response_key)

    def test_block_mac_key_differs_from_session_keys(self):
        keyring = ClientKeyring(b"master-key-for-session-tests!!!!")
        assert keyring.block_mac_key not in keyring.session_keys()

    def test_block_tag_binds_block_id(self):
        """The tag commits to the id: swapping two blocks' payloads fails."""
        keyring = ClientKeyring(b"master-key-for-session-tests!!!!")
        payload = b"ciphertext bytes"
        assert keyring.block_tag(1, payload) != keyring.block_tag(2, payload)

    def test_block_tag_binds_payload(self):
        keyring = ClientKeyring(b"master-key-for-session-tests!!!!")
        assert keyring.block_tag(1, b"aaaa") != keyring.block_tag(1, b"aaab")


class TestBlockTagsEndToEnd:
    @pytest.fixture
    def system(self, healthcare_doc, healthcare_scs):
        return SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )

    def test_hosting_tags_every_block(self, system):
        hosted = system.hosted
        assert set(hosted.block_tags) == set(hosted.blocks)
        for block_id, payload in hosted.blocks.items():
            assert hosted.block_tags[block_id] == (
                system._keyring.block_tag(block_id, payload)
            )

    def test_server_side_ciphertext_swap_detected(self, system):
        """An adversarial server swapping two blocks' payloads is caught."""
        hosted = system.hosted
        ids = sorted(hosted.blocks)[:2]
        first, second = ids[0], ids[1]
        hosted.placeholders[first].payload, hosted.placeholders[second].payload = (
            hosted.placeholders[second].payload,
            hosted.placeholders[first].payload,
        )
        hosted.blocks[first], hosted.blocks[second] = (
            hosted.blocks[second],
            hosted.blocks[first],
        )
        hosted.bump_epoch()  # server republishes its mutated state
        with pytest.raises(QueryFailedError) as failed:
            system.naive_query("//SSN")
        assert isinstance(failed.value.__cause__, TamperedResponseError)

    def test_server_side_bit_flip_detected(self, system):
        hosted = system.hosted
        block_id = sorted(hosted.blocks)[0]
        mutated = bytearray(hosted.placeholders[block_id].payload)
        mutated[len(mutated) // 2] ^= 0x01
        hosted.placeholders[block_id].payload = bytes(mutated)
        hosted.blocks[block_id] = bytes(mutated)
        hosted.bump_epoch()
        with pytest.raises(QueryFailedError) as failed:
            system.naive_query("//SSN")
        assert isinstance(failed.value.__cause__, TamperedResponseError)

    def test_a_hosting_with_no_blocks_refuses_a_shipped_block(
        self, healthcare_scs
    ):
        """No blocks means no tags, and no tag is no licence to believe a
        block: a server that ships one written by another hosting under
        the same master key is caught, not decrypted into the answer."""
        other = build_healthcare_database()
        betty_ssn = next(
            node for node in other.root.iter()
            if isinstance(node, Element) and node.tag == "SSN"
        )
        betty_ssn.children[0].value = "999999"
        donor = SecureXMLSystem.host(other, healthcare_scs, scheme="opt")
        bare = SecureXMLSystem.host(
            build_healthcare_database(), [], scheme="opt"
        )
        assert bare.hosted.blocks == {} and bare.hosted.block_tags == {}
        block_id = min(donor.hosted.blocks)
        shipped = bare.hosted.structural_index.lookup("SSN")[0].hosted_node
        shipped.children[0].replace_with(
            EncryptedBlockNode(block_id, donor.hosted.blocks[block_id])
        )
        with pytest.raises(QueryFailedError) as failed:
            bare.query("//patient/SSN")
        assert isinstance(failed.value.__cause__, TamperedResponseError)

    def test_update_refreshes_tags(self, system):
        system.update_value("//patient[pname='Betty']/SSN", "999999")
        hosted = system.hosted
        assert set(hosted.block_tags) == set(hosted.blocks)
        for block_id, payload in hosted.blocks.items():
            assert hosted.block_tags[block_id] == (
                system._keyring.block_tag(block_id, payload)
            )
        answer = system.query("//patient[SSN='999999']/pname")
        assert answer.values() == ["Betty"]
