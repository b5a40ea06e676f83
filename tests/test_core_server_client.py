"""Tests for server fragment assembly and client post-processing internals."""

import pytest

from repro.core import client as client_module
from repro.core.client import Client, QueryAnswer, canonical_node
from repro.core.encryptor import host_database
from repro.core.integrity import TamperedResponseError
from repro.core.scheme import build_scheme
from repro.core.server import Fragment, Server, ServerResponse
from repro.crypto.keyring import ClientKeyring
from repro.crypto.modes import cbc_encrypt
from repro.obs import MetricsRegistry
from repro.xmldb.node import Attribute, Element, EncryptedBlockNode
from repro.xmldb.parser import parse_fragment
from repro.xmldb.serializer import serialize

#: Reads of the process counter total.
metrics = MetricsRegistry()


@pytest.fixture
def stack(healthcare_doc, healthcare_scs):
    keyring = ClientKeyring(b"s" * 16)
    scheme = build_scheme(healthcare_doc, healthcare_scs, "opt")
    hosted = host_database(healthcare_doc, scheme, keyring)
    return hosted, Server(hosted), Client(keyring, hosted)


class TestServerFragments:
    def test_fragments_carry_ancestor_paths(self, stack):
        hosted, server, client = stack
        response = server.answer(client.translate("//treat/doctor"))
        assert response.fragments
        for fragment in response.fragments:
            tags = [tag for tag, _ in fragment.ancestor_path]
            assert tags[0] == "hospital"
            assert tags[-1] == "treat"

    def test_nested_fragments_deduplicated(self, stack):
        hosted, server, client = stack
        # //patient and //patient/treat both match; shipping patient
        # subsumes treat.
        response = server.answer(client.translate("//patient"))
        roots = [f.ancestor_path for f in response.fragments]
        assert len(response.fragments) == 2  # one per patient, no nesting

    def test_attribute_match_ships_owner(self, stack):
        hosted, server, client = stack
        response = server.answer(client.translate("//insurance//@coverage"))
        # @coverage lives inside insurance blocks -> blocks shipped.
        assert response.blocks_shipped == 2

    def test_no_matches_empty_response(self, stack):
        hosted, server, client = stack
        response = server.answer(client.translate("//unicorn"))
        assert response.fragments == []
        assert response.size_bytes() == 0

    def test_ship_all_is_whole_database(self, stack):
        hosted, server, client = stack
        response = server.ship_all()
        assert response.naive
        assert len(response.fragments) == 1
        assert response.fragments[0].ancestor_path == ()
        assert response.size_bytes() >= server.hosted_size_bytes()

    def test_fragment_size_accounts_path(self):
        fragment = Fragment(
            ancestor_path=(("hospital", 0), ("patient", 1)), xml="<a/>"
        )
        assert fragment.size_bytes() > len("<a/>")


class TestClientDecryption:
    def test_decrypt_fragments_strips_decoys(self, stack):
        hosted, server, client = stack
        response = server.answer(client.translate("//insurance"))
        decrypted = client.decrypt_fragments(response)
        for _, root in decrypted:
            assert "__decoy__" not in serialize(root)
            assert root.tag == "insurance"

    def test_decrypt_root_level_block(self, stack):
        hosted, server, client = stack
        block_id, payload = next(iter(hosted.blocks.items()))
        xml = (
            f'<EncryptedData block-id="{block_id}">{payload.hex()}'
            "</EncryptedData>"
        )
        response = ServerResponse(
            fragments=[Fragment(ancestor_path=(("hospital", 0),), xml=xml)]
        )
        decrypted = client.decrypt_fragments(response)
        assert len(decrypted) == 1
        assert isinstance(decrypted[0][1], Element)
        assert decrypted[0][1].tag != "EncryptedData"

    def test_decrypt_nested_placeholders(self, stack):
        hosted, server, client = stack
        response = server.answer(client.translate("//patient"))
        decrypted = client.decrypt_fragments(response)
        for _, root in decrypted:
            assert "EncryptedData" not in serialize(root)


def _with_tampered_block(response, victim):
    """The response with one flipped bit in the ``victim``-th fragment's
    first ciphertext payload."""
    fragments = list(response.fragments)
    xml = fragments[victim].xml
    start = xml.index(">", xml.index("<EncryptedData")) + 1
    flipped = "1" if xml[start] != "1" else "2"
    fragments[victim] = Fragment(
        ancestor_path=fragments[victim].ancestor_path,
        xml=xml[:start] + flipped + xml[start + 1 :],
    )
    return ServerResponse(fragments=fragments)


class TestDecryptPipelineOrder:
    """scan → verify every tag → derive IVs → one cipher pass → splice →
    one parse per fragment."""

    def test_one_tampered_payload_stops_the_batch_before_any_cipher_call(
        self, stack
    ):
        hosted, server, client = stack
        response = server.answer(client.translate("//patient"))
        assert len(response.fragments) > 1 and response.blocks_shipped > 2
        tampered = _with_tampered_block(response, len(response.fragments) - 1)
        client.flush_caches()  # hosting shares the keyring and its IV memo
        before = metrics.counter_values()
        with pytest.raises(TamperedResponseError):
            client.decrypt_fragments(tampered)
        delta = metrics.counters_delta(before)
        assert delta["blocks_decrypted"] == 0
        assert delta["integrity_failures"] == 1
        assert len(client._block_cache) == len(client._tree_cache) == 0
        assert client._keyring._block_ivs == {}  # not even an IV derived
        # The untampered response still decrypts afterwards.
        assert len(client.decrypt_fragments(response)) == len(response.fragments)

    def test_block_cache_hit_still_verifies_its_ciphertext(self, stack):
        hosted, server, client = stack
        response = server.answer(client.translate("//patient"))
        client.decrypt_fragments(response)
        blocks = client._block_cache.live()
        assert blocks
        assert all(type(text) is str for text in blocks.values())
        tampered = _with_tampered_block(response, 0)  # new text: tree-cache miss
        before = metrics.counter_values()
        with pytest.raises(TamperedResponseError):
            client.decrypt_fragments(tampered)
        assert metrics.counters_delta(before)["blocks_decrypted"] == 0

    def test_one_cipher_pass_per_response(self, stack, monkeypatch):
        hosted, server, client = stack
        response = server.answer(client.translate("//patient"))
        calls = []
        original = client_module.cbc_decrypt_many

        def recording(cipher, items):
            calls.append(len(items))
            return original(cipher, items)

        monkeypatch.setattr(client_module, "cbc_decrypt_many", recording)
        before = metrics.counter_values()
        client.decrypt_fragments(response)
        delta = metrics.counters_delta(before)
        assert calls == [response.blocks_shipped]
        assert delta["block_cache_misses"] == response.blocks_shipped
        assert delta["tree_cache_misses"] == len(response.fragments)
        # Warm: a dict lookup and a clone per fragment, no cipher pass.
        before = metrics.counter_values()
        client.decrypt_fragments(response)
        delta = metrics.counters_delta(before)
        assert calls == [response.blocks_shipped]
        assert delta["tree_cache_hits"] == len(response.fragments)
        assert delta["blocks_decrypted"] == delta["block_cache_misses"] == 0

    def test_repeats_inside_one_batch_count_as_the_serial_path_did(self, stack):
        """Second sight of a fragment text or a block id is a cache hit."""
        hosted, server, client = stack
        response = server.answer(client.translate("//insurance"))
        first = response.fragments[0]
        blocks = first.xml.count("<EncryptedData")
        assert blocks >= 1
        # Same block under a different fragment text: a block-cache hit.
        wrapped = Fragment(first.ancestor_path, f"<w>{first.xml}</w>")
        before = metrics.counter_values()
        trees = client.decrypt_fragments(
            ServerResponse(fragments=[first, first, wrapped])
        )
        delta = metrics.counters_delta(before)
        assert delta["tree_cache_misses"] == 2 and delta["tree_cache_hits"] == 1
        assert delta["block_cache_misses"] == blocks
        assert delta["block_cache_hits"] == blocks
        assert serialize(trees[0][1]) == serialize(trees[1][1])
        assert trees[0][1] is not trees[1][1]
        assert serialize(trees[2][1]) == f"<w>{serialize(trees[0][1])}</w>"

    def test_flush_caches_empties_the_iv_memo(self, stack):
        """Cold stays cold: the IVs are re-derived, just in C."""
        hosted, server, client = stack
        response = server.answer(client.translate("//patient"))
        client.flush_caches()
        client.decrypt_fragments(response)
        assert len(client._keyring._block_ivs) == response.blocks_shipped
        client.flush_caches()
        assert client._keyring._block_ivs == {}
        assert len(client._block_cache) == len(client._tree_cache) == 0

    def test_decrypt_fragment_is_a_batch_of_one(self, stack):
        hosted, server, client = stack
        response = server.answer(client.translate("//patient"))
        batch = client.decrypt_fragments(response)
        client.flush_caches()
        for (fragment, tree) in batch:
            assert serialize(client.decrypt_fragment(fragment.xml)) == serialize(tree)

    def test_block_nested_inside_a_block_is_resolved(self, stack):
        """The encryptor nests none, but a plaintext that holds a block
        (here: a root-level block whose plaintext is again a block) must
        not leak a placeholder into the answer tree."""
        hosted, server, client = stack
        keyring = client._keyring
        inner_id, inner_payload = next(iter(hosted.blocks.items()))
        outer_id = max(hosted.blocks) + 1
        inner_xml = serialize(EncryptedBlockNode(inner_id, inner_payload))
        outer_payload = cbc_encrypt(
            keyring.block_cipher,
            keyring.block_iv(outer_id),
            f"<wrap>{inner_xml}</wrap>".encode("utf-8"),
        )
        hosted.block_tags[outer_id] = keyring.block_tag(outer_id, outer_payload)
        outer_xml = serialize(EncryptedBlockNode(outer_id, outer_payload))
        tree = client.decrypt_fragment(f"<top>{outer_xml}</top>")
        text = serialize(tree)
        assert text.startswith("<top><wrap><") and "EncryptedData" not in text
        assert serialize(client.decrypt_fragment(outer_xml)) == text[5:-6]


class TestClientAssembly:
    def test_assemble_merges_shared_ancestors(self, stack):
        hosted, server, client = stack
        response = server.answer(client.translate("//treat/doctor"))
        pruned = client.assemble(client.decrypt_fragments(response))
        # All three treats re-attach under ONE hospital root with their
        # own patient skeletons (two patients).
        assert pruned.root.tag == "hospital"
        patients = [
            child for child in pruned.root.children
            if isinstance(child, Element) and child.tag == "patient"
        ]
        assert len(patients) == 2

    def test_assemble_whole_document_fragment(self, stack):
        hosted, server, client = stack
        pruned = client.assemble(
            client.decrypt_fragments(server.ship_all())
        )
        assert pruned.root.tag == "hospital"
        assert len(list(pruned.root.iter())) > 10

    def test_assemble_empty(self, stack):
        hosted, server, client = stack
        pruned = client.assemble([])
        assert pruned.root.tag == "hospital"
        assert pruned.root.children == []

    def test_post_process_exactness(self, stack, healthcare_doc):
        hosted, server, client = stack
        query = "//treat[disease='diarrhea']/doctor"
        response = server.answer(client.translate(query))
        pruned = client.assemble(client.decrypt_fragments(response))
        answer = client.post_process(query, pruned)
        from repro.xpath.evaluator import evaluate

        expected = sorted(
            canonical_node(n) for n in evaluate(healthcare_doc, query)
        )
        assert answer.canonical() == expected


class TestQueryAnswer:
    def test_canonical_node_forms(self):
        element = parse_fragment("<a>v</a>")
        assert canonical_node(element) == "<a>v</a>"
        attribute = Attribute("x", "1")
        assert canonical_node(attribute) == "@x=1"

    def test_values_skips_non_leaves(self):
        root = parse_fragment("<a><b>v</b><c><d>w</d></c></a>")
        from repro.xmldb.node import Document

        answer = QueryAnswer(
            nodes=[root, root.children[0]],
            pruned_document=Document(root.clone()),
        )
        assert answer.values() == ["v"]  # root has no text value
        assert len(answer) == 2
