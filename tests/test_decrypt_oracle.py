"""The text-level decrypt stage against the tree-level pipeline it replaced.

``decrypt_oracle.OracleDecryptor`` is ``Client``'s decrypt stage as it
stood when plaintexts were parsed one by one and spliced in as trees.
For honest fragments the client must build the same tree, node for node,
with the same cipher and cache-counter traffic.  For anything else a
server can put in a fragment's text it must build the tree the oracle
builds or raise ``TamperedResponseError`` — never another tree, never a
placeholder or a decoy, and never one of the untyped errors the oracle
lets escape.
"""

import gc
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decrypt_oracle import OracleDecryptor
from test_property_end_to_end import constraint_sets, documents
from repro.core.client import Client, canonical_node
from repro.core.decoy import DECOY_TAG
from repro.core.integrity import TamperedResponseError
from repro.core.server import Fragment, ServerResponse
from repro.core.system import QueryFailedError, SecureXMLSystem
from repro.crypto.modes import cbc_encrypt
from repro.obs import MetricsRegistry
from repro.serving import ServingServer, remote_system
from repro.workloads.axes import AxisWorkload
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints
from repro.xmldb.builder import TreeBuilder
from repro.xmldb.node import Attribute, Element, EncryptedBlockNode, Node, Text
from repro.xmldb.serializer import serialize
from repro.xpath.evaluator import evaluate

#: Reads of the process counter total.
metrics = MetricsRegistry()

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"
)

DATASETS = {
    "healthcare": (build_healthcare_database, healthcare_constraints),
    "xmark": (lambda: build_xmark_database(25, seed=5), xmark_constraints),
    "nasa": (lambda: build_nasa_database(15, seed=5), nasa_constraints),
}
#: (scheme, secure): the four §7.1 granularities, and the strawman hosting
#: (no decoys, one IV for every block).
CONFIGS = [("opt", True), ("top", True), ("sub", True), ("app", True), ("opt", False)]
HEALTHCARE_QUERIES = [
    "//patient",
    "//patient[.//insurance//@coverage>=10000]//SSN",
    "//treat[disease='leukemia']/doctor",
    "//insurance/policy#",
    "//insurance",
    "//SSN",
]
#: What the decrypt stage is allowed to move.
COUNTERS = (
    "blocks_decrypted",
    "block_cache_hits",
    "block_cache_misses",
    "tree_cache_hits",
    "tree_cache_misses",
)


def shape(node):
    """Everything about a tree but object identity."""
    if isinstance(node, Text):
        return node.value
    assert isinstance(node, Element), node  # no placeholder ever
    return (
        node.tag,
        [(a.name, a.value) for a in node.attributes],
        [shape(child) for child in node.children],
    )


def bench_reads(document, keep):
    """Every read shape of the ``bench/workloads.py`` workloads kept."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(BENCH_DIR)
        from workloads import WORKLOADS, Plan

        return [
            query
            for workload in WORKLOADS
            if keep(workload)
            for query in Plan(workload, document, seed=5).distinct_reads()
        ]


def bench_queries(dataset, document):
    return bench_reads(document, lambda workload: workload.dataset == dataset)


def queries_for(dataset, document):
    queries = AxisWorkload(document).queries()
    if dataset == "healthcare":
        queries += HEALTHCARE_QUERIES
    else:
        queries += bench_queries(dataset, document)
    return list(dict.fromkeys(queries))


def measured(call):
    before = metrics.counter_values()
    result = call()
    delta = metrics.counters_delta(before)
    return result, {name: delta[name] for name in COUNTERS}


# ----------------------------------------------------------------------
# Honest fragments
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flush", [False, True], ids=["cached", "uncached"])
@pytest.mark.parametrize("scheme,secure", CONFIGS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_every_shipped_fragment_decrypts_to_the_oracle_tree(
    dataset, scheme, secure, flush
):
    build, constraints = DATASETS[dataset]
    document = build()
    system = SecureXMLSystem.host(
        document, constraints(), scheme=scheme, secure=secure
    )
    # One client and one oracle for the whole sweep, so later responses
    # meet warm block and tree caches exactly as a session would — or,
    # flushed before every response, cold ones as a cold benchmark would.
    client = Client(system.keyring, system.hosted)
    oracle = OracleDecryptor(system.keyring, system.hosted)
    responses = [
        system.server.answer(client.translate(query))
        for query in queries_for(dataset, document)
    ]
    responses.append(system.server.ship_all())
    shipped = 0
    for response in responses:
        xmls = [fragment.xml for fragment in response.fragments]
        if flush:
            client.flush_caches()
            oracle.flush_caches()
        trees, traffic = measured(lambda: client.decrypt_fragments(response))
        expected, oracle_traffic = measured(lambda: oracle.decrypt_batch(xmls))
        assert traffic == oracle_traffic
        assert len(trees) == len(expected)
        for (_, tree), oracle_tree in zip(trees, expected):
            assert shape(tree) == shape(oracle_tree)
            assert tree.parent is None
        shipped += response.blocks_shipped
    assert shipped > 0
    # The naive ship is the whole database: the original document.
    assert shape(trees[0][1]) == shape(document.root)


class TestRandomHostings:
    @given(
        documents(),
        constraint_sets(),
        st.sampled_from(["opt", "top", "sub", "app"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_host_ship_decrypt_gives_back_the_original_subtrees(
        self, document, constraints, scheme
    ):
        system = SecureXMLSystem.host(document, constraints, scheme=scheme)
        client, server = system.client, system.server
        originals = {serialize(e) for e in document.elements()}
        tags = sorted({e.tag for e in document.elements()})
        for query in [f"//{tag}" for tag in tags] + ["//rec/..", "//*"]:
            response = server.answer(client.translate(query))
            for _, tree in client.decrypt_fragments(response):
                text = serialize(tree)
                assert DECOY_TAG not in text
                assert "EncryptedData" not in text
                assert text in originals
                shape(tree)  # elements and text only
        whole = client.decrypt_fragments(server.ship_all())
        assert shape(whole[0][1]) == shape(document.root)


# ----------------------------------------------------------------------
# First, second and later sight of one fragment text
# ----------------------------------------------------------------------
def cold_ship_queries(document):
    """The 12 read shapes of the ``cold-ship`` benchmark workload."""
    queries = bench_reads(document, lambda workload: workload.name == "cold-ship")
    assert len(queries) == 12
    return queries


SIGHT_DATASETS = {
    "healthcare": (
        build_healthcare_database,
        healthcare_constraints,
        lambda document: HEALTHCARE_QUERIES,
    ),
    "xmark-40": (
        lambda: build_xmark_database(40, seed=5),
        xmark_constraints,
        cold_ship_queries,
    ),
}


def vandalise(tree):
    """What assembly and a careless caller do to a tree they were handed."""
    tree.tag = "vandalised"
    Element("attic").append(tree)
    for child in list(tree.children):
        child.detach()
    tree.append(Element("graffiti"))


def entry_kinds(client):
    return {type(entry[0]) for entry in client._tree_cache.live().values()}


class TestSights:
    """The first sight of a text hands out the parse and records the text;
    the second builds the pristine tree; every sight is the same tree."""

    @pytest.mark.parametrize("dataset", sorted(SIGHT_DATASETS))
    def test_every_sight_is_the_oracle_tree_whatever_became_of_the_last(
        self, dataset
    ):
        build, constraints, queries = SIGHT_DATASETS[dataset]
        document = build()
        system = SecureXMLSystem.host(document, constraints())
        client = Client(system.keyring, system.hosted)
        oracle = OracleDecryptor(system.keyring, system.hosted)
        responses = [
            system.server.answer(client.translate(query))
            for query in queries(document)
        ]
        responses.append(system.server.ship_all())
        for response in responses:
            xmls = [fragment.xml for fragment in response.fragments]
            client.flush_caches()
            expected = [serialize(tree) for tree in oracle.decrypt_batch(xmls)]
            assert expected
            for sight in ("first", "second", "third"):
                trees, traffic = measured(
                    lambda: client.decrypt_fragments(response)
                )
                assert [serialize(tree) for _, tree in trees] == expected, sight
                assert len({id(tree) for _, tree in trees}) == len(trees)
                if sight == "first":
                    assert traffic["tree_cache_misses"] == len(set(xmls))
                    # (a text shipped twice has its tree already)
                    assert str in entry_kinds(client)
                else:
                    assert traffic["tree_cache_misses"] == 0
                    assert traffic["tree_cache_hits"] == len(xmls)
                    assert traffic["blocks_decrypted"] == 0
                    assert entry_kinds(client) == {Element}
                for _, tree in trees:
                    vandalise(tree)

    def test_the_same_new_text_twice_in_one_response_is_two_trees(self, stack):
        system, client, oracle = stack
        honest = honest_fragment(system)
        path = (("hospital", 0),)
        client.flush_caches()
        response = ServerResponse(
            fragments=[Fragment(path, honest), Fragment(path, honest)]
        )
        (_, one), (_, other) = client.decrypt_fragments(response)
        expected = shape(oracle.decrypt_fragment(honest))
        assert one is not other and shape(one) == shape(other) == expected
        vandalise(one)
        assert shape(other) == expected
        vandalise(other)
        # First and second sight at once: the pristine tree is already built.
        assert entry_kinds(client) == {Element}
        assert shape(client.decrypt_fragment(honest)) == expected

    def test_a_write_between_first_and_second_sight(self, stack):
        """The recorded plaintext is held to the same rule as a tree: a
        write that rewrote one of its blocks drops it, any other keeps it."""
        system, client, _ = stack
        query = "//patient"

        def read():
            response = system.server.answer(client.translate(query))
            return measured(lambda: client.decrypt_fragments(response))

        client.flush_caches()
        trees, _ = read()
        assert "leukemia" in "".join(serialize(tree) for _, tree in trees)
        recorded = client._tree_cache.live()
        assert len(recorded) == 2 and entry_kinds(client) == {str}
        assert any("leukemia" in text for text, _ in recorded.values())

        system.update_value("//patient[pname='Matt']/treat/disease", "measles")
        kept = client._tree_cache.live()
        assert len(kept) == 1 and entry_kinds(client) == {str}
        assert not any("leukemia" in text for text, _ in kept.values())

        trees, traffic = read()
        text = "".join(serialize(tree) for _, tree in trees)
        assert "measles" in text and "leukemia" not in text
        # Betty's fragment: second sight, parsed from the text kept across
        # the write.  Matt's: a new text, two of its three blocks unwritten.
        assert (traffic["tree_cache_hits"], traffic["tree_cache_misses"]) == (1, 1)
        assert (traffic["block_cache_hits"], traffic["block_cache_misses"]) == (2, 1)
        assert entry_kinds(client) == {str, Element}

    def test_a_cold_read_builds_each_handed_node_about_once(self, monkeypatch):
        """A count, not a timing: with a clone on first sight this read
        2.0 nodes built per node handed to ``assemble``."""
        document = build_xmark_database(40, seed=5)
        system = SecureXMLSystem.host(document, xmark_constraints())
        client = system.client
        responses = [
            system.server.answer(client.translate(query))
            for query in cold_ship_queries(document)
        ]
        built = 0
        construct = Node.__init__

        def counted(node):
            nonlocal built
            built += 1
            construct(node)

        monkeypatch.setattr(Node, "__init__", counted)
        handed = 0
        for response in responses:
            client.flush_caches()
            for _, tree in client.decrypt_fragments(response):
                handed += sum(
                    1 + len(getattr(node, "attributes", ()))
                    for node in tree.iter()
                )
        assert handed > 2000
        assert built <= 1.15 * handed, (built, handed)


# ----------------------------------------------------------------------
# What a tree costs the garbage collector
# ----------------------------------------------------------------------
LAYOUT_READS = {
    "xmark-40": (
        lambda: build_xmark_database(40, seed=5),
        xmark_constraints,
        "/site/people",
    ),
    "nasa-40": (
        lambda: build_nasa_database(40, seed=5),
        nasa_constraints,
        "//journal/author[1]/initial",
    ),
}


def tracked_per_node(document):
    """Distinct GC-tracked objects per node among the node, its children
    and its attributes, attribute nodes included."""
    tracked = nodes = 0
    for node in document.iter_with_attributes():
        parts = (node, node.children, getattr(node, "attributes", ()))
        tracked += len({id(part) for part in parts if gc.is_tracked(part)})
        nodes += 1
    return tracked / nodes


class TestNodeLayout:
    """Counts, not timings.  An answer tree is cyclic through ``parent``,
    so only the collector frees it, at a cost that grows with the objects
    it tracks: a leaf with its own empty child list and an element with its
    own empty attribute list cost 2.546 (XMark) and 2.672 (NASA) per node."""

    @pytest.mark.parametrize("dataset", sorted(LAYOUT_READS))
    def test_a_cold_answer_node_is_about_one_tracked_object(self, dataset):
        build, constraints, query = LAYOUT_READS[dataset]
        system = SecureXMLSystem.host(build(), constraints())
        system.flush_caches()
        pruned = system.query(query).pruned_document
        assert pruned.size() > 500
        assert tracked_per_node(pruned) <= 1.75

    def test_a_cold_read_builds_each_handed_node_about_once_per_kind(
        self, monkeypatch
    ):
        """``TestSights``' count, taken at each kind's own constructor:
        none of them chains to ``Node.__init__``."""
        document = build_xmark_database(40, seed=5)
        system = SecureXMLSystem.host(document, xmark_constraints())
        client = system.client
        responses = [
            system.server.answer(client.translate(query))
            for query in cold_ship_queries(document)
        ]
        built = 0
        for kind in (Element, Text, Attribute, EncryptedBlockNode):

            def counted(node, *args, construct=kind.__init__):
                nonlocal built
                built += 1
                construct(node, *args)

            monkeypatch.setattr(kind, "__init__", counted)
        handed = 0
        for response in responses:
            client.flush_caches()
            for _, tree in client.decrypt_fragments(response):
                handed += sum(
                    1 + len(getattr(node, "attributes", ()))
                    for node in tree.iter()
                )
        assert handed > 2000
        assert handed <= built <= 1.15 * handed, (built, handed)


# ----------------------------------------------------------------------
# Hostile fragments
# ----------------------------------------------------------------------
def make_stack(secure=True):
    system = SecureXMLSystem.host(
        build_healthcare_database(), healthcare_constraints(), scheme="opt",
        secure=secure,
    )
    oracle = OracleDecryptor(system.keyring, system.hosted)
    return system, system.client, oracle


@pytest.fixture
def stack():
    return make_stack()


def honest_fragment(system):
    """A plaintext ``patient`` root with blocks nested below it."""
    response = system.server.answer(system.client.translate("//patient"))
    xml = response.fragments[0].xml
    assert xml.startswith("<patient") and xml.count("<EncryptedData ") >= 2
    return xml


def first_block(xml):
    start = xml.index("<EncryptedData ")
    end = xml.index("</EncryptedData>", start) + len("</EncryptedData>")
    return start, end, xml[start:end]


def own_block(system, block_id, plaintext, tagged=True):
    """A block only the key holder can make, serialized for the wire."""
    keyring = system.keyring
    payload = cbc_encrypt(
        keyring.block_cipher, keyring.block_iv(block_id), plaintext
    )
    if tagged:
        system.hosted.block_tags[block_id] = keyring.block_tag(
            block_id, payload
        )
    return serialize(EncryptedBlockNode(block_id, payload))


def _replace_block(edit):
    def mutate(system, xml):
        start, end, block = first_block(xml)
        return xml[:start] + edit(block) + xml[end:]
    return mutate


def _upper_hex(block):
    open_end = block.index(">") + 1
    close = block.index("</")
    return block[:open_end] + block[open_end:close].upper() + block[close:]


def _flip_payload(block):
    at = block.index(">") + 1
    return block[:at] + ("1" if block[at] != "1" else "2") + block[at + 1 :]


#: name → (mutation, expected); expected is "tampered", "untagged"
#: (tampered, and turned away by the tag check before any cipher call),
#: "same" (the tree of the unmutated fragment) or "oracle" (whatever the
#: oracle builds).
HOSTILE = {
    "truncated-tail": (lambda s, x: x[:-4], "tampered"),
    "truncated-half": (lambda s, x: x[: len(x) // 2], "tampered"),
    "truncated-inside-payload": (
        lambda s, x: x[: x.index("</EncryptedData>") - 3], "tampered",
    ),
    "block-in-comment": (
        _replace_block(lambda b: f"<!--{b}-->"), "tampered",
    ),
    "block-in-cdata": (
        _replace_block(lambda b: f"<![CDATA[{b}]]>"), "tampered",
    ),
    "block-in-pi": (_replace_block(lambda b: f"<?pi {b}?>"), "tampered"),
    "comment-beside-blocks": (
        lambda s, x: x.replace("<EncryptedData ", "<!-- c --><EncryptedData ", 1),
        "tampered",
    ),
    "single-quoted-id": (
        _replace_block(lambda b: b.replace('"', "'")), "tampered",
    ),
    "space-before-attribute": (
        _replace_block(lambda b: b.replace(" block-id", "  block-id")), "tampered",
    ),
    "space-in-open-tag": (
        _replace_block(lambda b: b.replace('">', '" >')), "tampered",
    ),
    "space-in-close-tag": (
        _replace_block(lambda b: b.replace("</EncryptedData>", "</EncryptedData >")),
        "tampered",
    ),
    # ``bytes.fromhex`` reads these two as the parser's placeholder did.
    "space-around-payload": (
        _replace_block(lambda b: b.replace('">', '"> ').replace("</", " </")),
        "same",
    ),
    "upper-case-hex": (_replace_block(_upper_hex), "same"),
    "entity-in-payload": (
        _replace_block(lambda b: b.replace('">', '">&#48;&#48;')), "tampered",
    ),
    "extra-attribute": (
        _replace_block(lambda b: b.replace('">', '" x="1">', 1)), "tampered",
    ),
    "odd-length-hex": (
        _replace_block(lambda b: b.replace("</", "0</")), "tampered",
    ),
    "non-hex-payload": (
        _replace_block(lambda b: b.replace("</", "zz</")), "tampered",
    ),
    "empty-payload": (
        _replace_block(lambda b: b[: b.index(">") + 1] + "</EncryptedData>"),
        "tampered",
    ),
    "element-in-payload": (
        _replace_block(lambda b: b.replace("</", "<x/></")), "tampered",
    ),
    "flipped-payload-bit": (_replace_block(_flip_payload), "tampered"),
    "duplicate-id-differing-payload": (
        _replace_block(lambda b: b + _flip_payload(b)), "tampered",
    ),
    "duplicate-id-same-payload": (
        _replace_block(lambda b: b + b), "oracle",
    ),
    "unknown-id-garbage-payload": (
        _replace_block(
            lambda b: '<EncryptedData block-id="987654">' + "ab" * 32
            + "</EncryptedData>"
        ),
        "tampered",
    ),
    # The owner wrote this payload, but never under this id.
    "unknown-id-replayed-payload": (
        _replace_block(
            lambda b: '<EncryptedData block-id="987654"' + b[b.index(">") :]
        ),
        "untagged",
    ),
    "negative-id": (
        _replace_block(lambda b: b.replace('block-id="', 'block-id="-')),
        "tampered",
    ),
    "look-alike-tag": (
        lambda s, x: x.replace("</patient>", '<EncryptedDataX block-id="1">00</EncryptedDataX></patient>'),
        "oracle",
    ),
    "block-tag-without-id": (
        lambda s, x: x.replace("</patient>", "<EncryptedData>00</EncryptedData></patient>"),
        "oracle",
    ),
    "decoy-in-plaintext-part": (
        lambda s, x: x.replace("</patient>", "<__decoy__>zz</__decoy__></patient>"),
        "same",
    ),
    "decoy-with-attributes-and-children": (
        lambda s, x: x.replace(
            "</patient>",
            '<__decoy__ k="v"><kept>no</kept><__decoy__/>t</__decoy__></patient>',
        ),
        "same",
    ),
    "decoy-with-a-bad-attribute": (
        lambda s, x: x.replace("</patient>", '<__decoy__ k="&bogus;">z</__decoy__></patient>'),
        "tampered",
    ),
    "decoy-wrapping-a-block": (
        _replace_block(lambda b: f"<__decoy__>{b}</__decoy__>"), "oracle",
    ),
    "decoy-inside-a-block": (
        lambda s, x: x.replace(
            "</patient>",
            own_block(s, 9001, b'<n><__decoy__ a="1"><m>no</m></__decoy__>v</n>')
            + "</patient>",
        ),
        "oracle",
    ),
    "block-nested-in-a-block": (
        lambda s, x: x.replace(
            "</patient>",
            own_block(s, 9002, f"<wrap>{first_block(x)[2]}</wrap>".encode())
            + "</patient>",
        ),
        "oracle",
    ),
    "non-canonical-block-nested-in-a-block": (
        lambda s, x: x.replace(
            "</patient>",
            own_block(
                s, 9003,
                f"<wrap>{first_block(x)[2]}</wrap>".replace('"', "'").encode(),
            )
            + "</patient>",
        ),
        "tampered",
    ),
    "whole-fragment-is-one-block": (
        lambda s, x: first_block(x)[2], "oracle",
    ),
    "whole-fragment-is-a-decoy": (
        lambda s, x: "<__decoy__>x</__decoy__>", "oracle",
    ),
    "text-beside-a-decoy-stays-two-nodes": (
        lambda s, x: "<a>v<__decoy__>x</__decoy__>w</a>", "oracle",
    ),
    "not-xml-at-all": (lambda s, x: "\x00\x01 nope", "tampered"),
    "empty-text": (lambda s, x: "", "tampered"),
}


#: Every row on a secure hosting, and the replay again where one IV
#: serves every block: there nothing but the tag check can turn it away.
HOSTILE_CASES = [pytest.param(name, True, id=name) for name in sorted(HOSTILE)] + [
    pytest.param(
        "unknown-id-replayed-payload", False,
        id="unknown-id-replayed-payload-one-iv",
    )
]


class TestHostileFragments:
    @pytest.mark.parametrize("name,secure", HOSTILE_CASES)
    def test_oracle_tree_or_typed_error(self, name, secure):
        system, client, oracle = make_stack(secure)
        mutate, expected = HOSTILE[name]
        honest = honest_fragment(system)
        hostile = mutate(system, honest)
        assert hostile != honest
        try:
            oracle_shape = shape(oracle.decrypt_fragment(hostile))
        except Exception:  # the oracle's untyped escapes are the bug
            oracle_shape = None
        if expected == "same":
            assert oracle_shape == shape(oracle.decrypt_fragment(honest))
        elif expected == "oracle":
            assert oracle_shape is not None
        for attempt in ("cold", "warm"):  # warm: block cache holds the ids
            before = metrics.counter_values()
            try:
                tree = client.decrypt_fragment(hostile)
            except TamperedResponseError:
                assert expected in ("tampered", "untagged"), (name, attempt)
                assert hostile not in client._tree_cache.live()
                if expected == "untagged":
                    delta = metrics.counters_delta(before)
                    assert delta["integrity_failures"] == 1, (name, attempt)
                    assert delta["blocks_decrypted"] == 0, (name, attempt)
            else:
                assert expected in ("same", "oracle"), (name, attempt)
                assert shape(tree) == oracle_shape
        # Nothing a hostile fragment did sticks: the honest one still reads.
        assert shape(client.decrypt_fragment(honest)) == shape(
            oracle.decrypt_fragment(honest)
        )

    def test_hostile_fragment_fails_the_whole_batch(self, stack):
        system, client, _ = stack
        honest = honest_fragment(system)
        client.flush_caches()
        before = metrics.counter_values()
        with pytest.raises(TamperedResponseError):
            client.decrypt_fragments(ServerResponse(fragments=[
                Fragment((("hospital", 0),), honest),
                Fragment((("hospital", 0),), honest[:-4]),
            ]))
        # The scan and every MAC check passed; only the parse did not —
        # so the blocks were decrypted, but no tree was cached.
        assert metrics.counters_delta(before)["blocks_decrypted"] > 0
        assert len(client._tree_cache) == 0

    @pytest.mark.parametrize(
        "plaintext",
        [
            b"\xff\xfe not utf-8",
            b"no markup at all",
            b"<a/><b/>",
            b"</patient><patient>",
            b"<a>unclosed",
            b"",
        ],
        ids=["non-utf8", "text", "two-roots", "unbalanced", "unclosed", "empty"],
    )
    def test_unverifiable_plaintext_on_a_tagless_hosting(self, stack, plaintext):
        """Hostings from before block tags: no MAC vouches for the shape
        of a plaintext, so it must stand as one element on its own."""
        system, client, oracle = stack
        system.hosted.block_tags.clear()
        block = own_block(system, 9100, plaintext, tagged=False)
        for text in (block, f"<patient>{block}</patient>"):
            with pytest.raises(Exception) as escaped:
                oracle.decrypt_fragment(text)
            assert not isinstance(escaped.value, TamperedResponseError)
            with pytest.raises(TamperedResponseError):
                client.decrypt_fragment(text)

    def test_bad_padding_on_a_tagless_hosting(self, stack):
        system, client, oracle = stack
        system.hosted.block_tags.clear()
        start, end, block = first_block(honest_fragment(system))
        for garbled in (_flip_payload(block), block.replace("</", "00</")):
            with pytest.raises(ValueError) as escaped:
                oracle.decrypt_fragment(f"<p>{garbled}</p>")
            assert not isinstance(escaped.value, TamperedResponseError)
            with pytest.raises(TamperedResponseError):
                client.decrypt_fragment(f"<p>{garbled}</p>")


#: The assemble stage's table: name → what a server does to the ancestor
#: paths it ships.  Every row must end in ``TamperedResponseError``.
HOSTILE_PATHS = {
    "fragments-disagree-on-the-root": lambda paths: [
        paths[0], (("clinic", 987654),) + paths[1][1:], *paths[2:]
    ],
}


class _LyingServer:
    """Seals honest-looking responses around fragments it has damaged:
    the first one's text, or (``repath``) every one's ancestor path."""

    def __init__(self, system, mutate=None, repath=None):
        self.lies = 0
        honest_answer = system.server.answer

        def answer(query):
            response = honest_answer(query)
            shipped = response.fragments
            if mutate is not None:
                first = shipped[0]
                shipped[0] = Fragment(
                    first.ancestor_path, mutate(system, first.xml)
                )
            if repath is not None:
                shipped[:] = [
                    Fragment(path, fragment.xml)
                    for fragment, path in zip(
                        shipped, repath([f.ancestor_path for f in shipped])
                    )
                ]
            self.lies += 1
            return response

        system.server.answer = answer


class TestLyingServer:
    QUERY = "//patient"

    @pytest.mark.parametrize(
        "name", ["truncated-tail", "block-in-cdata", "single-quoted-id", "odd-length-hex"]
    )
    def test_query_falls_back_or_fails_typed(self, name):
        document = build_healthcare_database()
        expected = sorted(canonical_node(n) for n in evaluate(document, self.QUERY))
        system = SecureXMLSystem.host(document, healthcare_constraints())
        liar = _LyingServer(system, HOSTILE[name][0])
        # Every attempt fails typed; running out of them is a typed
        # failure, never a download through the server that just lied.
        before = metrics.counter_values()
        with pytest.raises(QueryFailedError) as failed:
            system.query(self.QUERY)
        assert isinstance(failed.value.__cause__, TamperedResponseError)
        # (The server's wire cache re-serves the one sealed lie.)
        assert metrics.counters_delta(before)["integrity_failures"] == 4
        assert liar.lies >= 1
        # The explicit §7.3 baseline, which this server does not lie
        # about, still answers exactly.
        assert system.naive_query(self.QUERY).canonical() == expected

    @pytest.mark.parametrize("name", sorted(HOSTILE_PATHS))
    def test_hostile_ancestor_paths_fail_typed_too(self, name):
        """The server holds the response session key, so it can seal any
        fragment list it likes: assembly is the last stage that reads
        shipped bytes, and it raises the same typed error as the rest."""
        query = "//pname"
        document = build_healthcare_database()
        expected = sorted(canonical_node(n) for n in evaluate(document, query))
        system = SecureXMLSystem.host(document, healthcare_constraints())
        honest = system.client.decrypt_fragments(
            system.server.answer(system.client.translate(query))
        )
        assert len(honest) == 2 and all(f.ancestor_path for f, _ in honest)
        liar = _LyingServer(system, repath=HOSTILE_PATHS[name])
        with pytest.raises(TamperedResponseError):
            system.client.assemble(system.client.decrypt_fragments(
                system.server.answer(system.client.translate(query))
            ))
        before = metrics.counter_values()
        with pytest.raises(QueryFailedError) as failed:
            system.query(query)
        assert isinstance(failed.value.__cause__, TamperedResponseError)
        assert metrics.counters_delta(before)["integrity_failures"] == 4
        assert liar.lies >= 2
        assert system.naive_query(query).canonical() == expected

    def test_remote_system_gets_the_same_typed_failure(self):
        document = build_healthcare_database()
        expected = sorted(canonical_node(n) for n in evaluate(document, self.QUERY))
        local = SecureXMLSystem.host(document, healthcare_constraints())
        server = ServingServer(max_inflight=4)
        server.register_tenant("t0", local)
        address = server.start()
        try:
            remote = remote_system(local, address, "t0")
            try:
                assert remote.query(self.QUERY).canonical() == expected
                liar = _LyingServer(local, HOSTILE["truncated-tail"][0])
                local.server.flush_caches()
                remote.flush_caches()
                before = metrics.counter_values()
                with pytest.raises(QueryFailedError) as failed:
                    remote.query(self.QUERY)
                assert isinstance(
                    failed.value.__cause__, TamperedResponseError
                )
                assert liar.lies >= 1
                assert metrics.counters_delta(before)["integrity_failures"] == 4
            finally:
                remote.close()
        finally:
            server.stop()


# ----------------------------------------------------------------------
# User text that looks like what the scan and the splice key on
# ----------------------------------------------------------------------
AWKWARD_VALUES = [
    r"\1",
    r"\g<0>",
    '<EncryptedData block-id="1">00</EncryptedData>',
    "<__decoy__>x</__decoy__>",
    "<!--",
    "]]>",
    "<?pi?> &amp; &#65;",
]


class TestAwkwardLeafValues:
    """``secret`` is encrypted, ``label`` and ``@note`` stay plaintext."""

    CONSTRAINTS = ["//rec/secret"]

    def _document(self, values):
        builder = TreeBuilder("root")
        for index, value in enumerate(values):
            with builder.element("rec", note=value, n=str(index)):
                builder.leaf("secret", value)
                builder.leaf("label", value)
        return builder.document()

    def _host(self, document):
        from repro.core.constraints import SecurityConstraint

        system = SecureXMLSystem.host(
            document, [SecurityConstraint.parse(c) for c in self.CONSTRAINTS]
        )
        assert "secret" in system.hosted.encrypted_tags
        assert "label" not in system.hosted.encrypted_tags
        return system

    def _check(self, system, document, queries):
        for query in queries:
            expected = sorted(canonical_node(n) for n in evaluate(document, query))
            system.flush_caches()
            assert system.query(query).canonical() == expected, query
            assert system.query(query).canonical() == expected, query  # warm
            assert system.last_trace.integrity_failures == 0

    def test_round_trip_through_hosting(self):
        document = self._document(AWKWARD_VALUES)
        system = self._host(document)
        self._check(
            system, document, ["//secret", "//label", "//rec", "/root", "//rec/@note"]
        )
        for _, tree in system.client.decrypt_fragments(system.server.ship_all()):
            assert shape(tree) == shape(document.root)

    @pytest.mark.parametrize("value", AWKWARD_VALUES)
    def test_round_trip_through_insert_and_update(self, value):
        document = self._document(["plain", "other"])
        system = self._host(document)
        first, second = evaluate(document, "//rec")
        for tag in ("secret", "label"):
            system.insert_element("//rec[@n='0']", tag, value)
            first.append(Element(tag)).append(Text(value))
        self._check(system, document, ["//rec", "//secret", "//label"])
        for tag in ("secret", "label"):
            system.update_value(f"//rec[@n='1']/{tag}", value)
            (leaf,) = evaluate(document, f"//rec[@n='1']/{tag}")
            leaf.children[0].value = value
        self._check(system, document, ["//rec", "//secret", "//label", "/root"])
