"""Tests for the hosting pipeline (§4.1 + §5 metadata construction)."""

import pytest

from repro.core.decoy import DECOY_TAG
from repro.core.encryptor import host_database
from repro.core.scheme import build_scheme
from repro.crypto.keyring import ClientKeyring
from repro.crypto.modes import cbc_decrypt
from repro.xmldb.node import Element, EncryptedBlockNode
from repro.xmldb.parser import parse_fragment
from repro.xmldb.serializer import serialize


def host(document, constraints, kind="opt", key=b"k" * 16):
    keyring = ClientKeyring(key)
    scheme = build_scheme(document, constraints, kind)
    return host_database(document, scheme, keyring), keyring, scheme


class TestHostedTree:
    def test_block_roots_replaced(self, healthcare_doc, healthcare_scs):
        hosted, _, scheme = host(healthcare_doc, healthcare_scs)
        placeholders = [
            node
            for node in hosted.hosted_root.iter()
            if isinstance(node, EncryptedBlockNode)
        ]
        assert len(placeholders) == len(scheme.block_root_ids)

    def test_top_scheme_root_is_placeholder(self, healthcare_doc, healthcare_scs):
        hosted, _, _ = host(healthcare_doc, healthcare_scs, "top")
        assert isinstance(hosted.hosted_root, EncryptedBlockNode)

    def test_no_plaintext_sensitive_values_in_hosted(
        self, healthcare_doc, healthcare_scs
    ):
        hosted, _, _ = host(healthcare_doc, healthcare_scs)
        hosted_xml = serialize(hosted.hosted_root)
        # Insurance data (node SC) must be invisible.  Values are matched
        # in their serialized leaf form (bare digit strings could collide
        # with hex ciphertext by chance).
        assert "policy#" not in hosted_xml
        assert ">34221<" not in hosted_xml
        assert 'coverage="1000000"' not in hosted_xml
        # Covered association endpoints too.
        for field in hosted.field_plans:
            for value in hosted.field_plans[field].ordered_values:
                assert f">{value}<" not in hosted_xml

    def test_original_document_untouched(self, healthcare_doc, healthcare_scs):
        before = serialize(healthcare_doc)
        host(healthcare_doc, healthcare_scs)
        assert serialize(healthcare_doc) == before

    def test_blocks_decrypt_to_original_plus_decoys(
        self, healthcare_doc, healthcare_scs
    ):
        hosted, keyring, scheme = host(healthcare_doc, healthcare_scs)
        for block_id, payload in hosted.blocks.items():
            plaintext = cbc_decrypt(
                keyring.block_cipher, keyring.block_iv(block_id), payload
            )
            subtree = parse_fragment(plaintext.decode("utf-8"))
            assert isinstance(subtree, Element)
            decoys = list(subtree.find_elements(DECOY_TAG))
            assert decoys, "every block carries at least one decoy"

    def test_equal_subtrees_encrypt_differently(self):
        """The decoy effect: the two diarrhea leaves differ as ciphertext."""
        from repro.core.constraints import SecurityConstraint
        from repro.xmldb.parser import parse_document

        doc = parse_document(
            "<r><t><d>diarrhea</d><n>a</n></t><t><d>diarrhea</d><n>b</n></t></r>"
        )
        constraints = [SecurityConstraint.parse("//t:(/d, /n)")]
        hosted, _, _ = host(doc, constraints)
        payloads = list(hosted.blocks.values())
        assert len(payloads) >= 2
        assert len(set(payloads)) == len(payloads)

    def test_deterministic_given_key(self, healthcare_doc, healthcare_scs):
        first, _, _ = host(healthcare_doc, healthcare_scs, key=b"a" * 16)
        second, _, _ = host(healthcare_doc, healthcare_scs, key=b"a" * 16)
        assert first.blocks == second.blocks
        assert serialize(first.hosted_root) == serialize(second.hosted_root)

    def test_key_changes_everything(self, healthcare_doc, healthcare_scs):
        first, _, _ = host(healthcare_doc, healthcare_scs, key=b"a" * 16)
        second, _, _ = host(healthcare_doc, healthcare_scs, key=b"b" * 16)
        assert first.blocks != second.blocks


class TestClientKnowledge:
    def test_tag_classification(self, healthcare_doc, healthcare_scs):
        hosted, _, _ = host(healthcare_doc, healthcare_scs)
        assert "insurance" in hosted.encrypted_tags
        assert "patient" in hosted.plaintext_keys
        assert "hospital" in hosted.plaintext_keys
        assert "@coverage" in hosted.encrypted_tags

    def test_field_plans_cover_encrypted_leaves(
        self, healthcare_doc, healthcare_scs
    ):
        hosted, _, scheme = host(healthcare_doc, healthcare_scs)
        assert "policy#" in hosted.field_plans  # inside insurance blocks
        assert "@coverage" in hosted.field_plans
        for field in scheme.covered_fields:
            assert field in hosted.field_plans

    def test_plaintext_fields_have_no_plans(self, healthcare_doc, healthcare_scs):
        hosted, _, _ = host(healthcare_doc, healthcare_scs)
        assert "age" not in hosted.field_plans  # age stays plaintext (opt)

    def test_field_tokens_match_tag_cipher(self, healthcare_doc, healthcare_scs):
        hosted, keyring, _ = host(healthcare_doc, healthcare_scs)
        for field, token in hosted.field_tokens.items():
            assert token == keyring.tag_cipher.encrypt_tag(field)

    def test_decoy_count_positive(self, healthcare_doc, healthcare_scs):
        hosted, _, _ = host(healthcare_doc, healthcare_scs)
        assert hosted.decoy_count > 0


class TestServerVisibleState:
    def test_plaintext_entries_annotated(self, healthcare_doc, healthcare_scs):
        hosted, _, _ = host(healthcare_doc, healthcare_scs)
        age_entries = hosted.structural_index.lookup("age")
        assert len(age_entries) == 2
        assert sorted(e.plaintext_value for e in age_entries) == ["35", "40"]
        assert all(e.hosted_node is not None for e in age_entries)

    def test_encrypted_entries_not_annotated(self, healthcare_doc, healthcare_scs):
        hosted, keyring, _ = host(healthcare_doc, healthcare_scs)
        token = keyring.tag_cipher.encrypt_tag("insurance")
        for entry in hosted.structural_index.lookup(token):
            assert entry.plaintext_value is None
            assert entry.hosted_node is None

    def test_value_index_only_covers_encrypted_fields(
        self, healthcare_doc, healthcare_scs
    ):
        hosted, keyring, _ = host(healthcare_doc, healthcare_scs)
        age_token = keyring.tag_cipher.encrypt_tag("age")
        assert age_token not in hosted.value_index.fields

    def test_hosted_size_smaller_for_opt_than_sub(
        self, healthcare_doc, healthcare_scs
    ):
        opt_hosted, _, _ = host(healthcare_doc, healthcare_scs, "opt")
        sub_hosted, _, _ = host(healthcare_doc, healthcare_scs, "sub")
        assert opt_hosted.hosted_size_bytes() <= sub_hosted.hosted_size_bytes()

    def test_reserved_tag_rejected(self, healthcare_scs):
        from repro.xmldb.builder import TreeBuilder

        builder = TreeBuilder("r")
        builder.leaf(DECOY_TAG, "x")
        doc = builder.document()
        with pytest.raises(ValueError):
            host(doc, [])
