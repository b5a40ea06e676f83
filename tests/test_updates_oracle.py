"""The O(change) update engine against the full-scan one it replaced.

Two hostings of the same document under the same key are driven in
lockstep through a seeded stream of inserts, value updates and deletes —
one by ``UpdateEngine``, one by ``updates_oracle.FullScanUpdateEngine``
(whole-index scans for the structural surgery, one ``insort`` per
entry for the value index).  After *every* operation everything the
untrusted side stores or the client keeps must be equal on both: the DSI
``entries`` with their parent/child links, ``table``, ``block_table``,
every ``FieldPlan``, every value-index field's ``items()``, block payloads
and tags, the hosted tree, and ``state_root()`` — which must also equal the
root of a Merkle tree built from scratch over the tags.

Operations are chosen by *position* in the index (the two sides are
separate object graphs kept identical, so position ``i`` names the same
entry on both) and reach every branch of the engine: encrypted and
plaintext leaf inserts, in-place and re-encrypting value updates, block
deletes, and deletes of plaintext subtrees with blocks nested below them.
"""

import hashlib
import os
import random

import pytest

from repro.core.integrity import BlockMerkleTree
from repro.core.opess import KeyRuns
from repro.core.storage import load_system, save_system
from repro.core.system import SecureXMLSystem
from repro.core.updates import UpdateEngine, UpdateError
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints
from repro.xmldb.node import Element
from repro.xmldb.serializer import serialize
from updates_oracle import FullScanUpdateEngine, build_value_index_by_insertion

DATASETS = {
    "healthcare": (build_healthcare_database, healthcare_constraints),
    "xmark": (lambda: build_xmark_database(40, seed=11), xmark_constraints),
    "nasa": (lambda: build_nasa_database(30, seed=13), nasa_constraints),
}

STREAM_LENGTH = 200


def host(dataset):
    build, constraints = DATASETS[dataset]
    return SecureXMLSystem.host(build(), constraints(), scheme="opt")


# ----------------------------------------------------------------------
# Everything a write may touch, as plain comparable data
# ----------------------------------------------------------------------
def hosted_state(system):
    hosted = system.hosted
    index = hosted.structural_index
    position = {id(entry): i for i, entry in enumerate(index.entries)}
    entries = [
        (
            entry.key,
            entry.interval,
            entry.member_ids,
            entry.block_id,
            entry.plaintext_value,
            None if entry.hosted_node is None else entry.hosted_node.node_id,
            None if entry.parent is None else position[id(entry.parent)],
            # A link to a removed entry has no position: KeyError.
            [position[id(child)] for child in entry.children],
        )
        for entry in index.entries
    ]
    return {
        "entries": entries,
        "table": [
            (key, [position[id(entry)] for entry in key_entries])
            for key, key_entries in index.table.items()
        ],
        "block_table": dict(index.block_table),
        "field_plans": dict(hosted.field_plans),
        "field_tokens": dict(hosted.field_tokens),
        "value_index": {
            token: list(entries.items())
            for token, entries in hosted.value_index.fields.items()
        },
        "occurrences": {k: list(v) for k, v in hosted.occurrences.items()},
        "blocks": dict(hosted.blocks),
        "block_tags": dict(hosted.block_tags),
        "block_stamps": dict(hosted.block_stamps),
        "max_block_id": hosted.max_block_id,
        "hosted_root": serialize(hosted.hosted_root),
        "epoch": hosted.epoch,
        "state_root": hosted.state_root(),
    }


def assert_same_state(system, oracle_system, context):
    actual = hosted_state(system)
    expected = hosted_state(oracle_system)
    for part in expected:
        assert actual[part] == expected[part], (part, context)
    hosted = system.hosted
    assert hosted.state_root() == BlockMerkleTree(hosted.block_tags).root(), context
    for entries in hosted.value_index.fields.values():
        KeyRuns(entries.keys, entries.runs)  # refuses keys out of order


# ----------------------------------------------------------------------
# Seeded operations, named by index position
# ----------------------------------------------------------------------
def subtree_size(entry):
    return 1 + sum(subtree_size(child) for child in entry.children)


def choose_operation(system, rng, step):
    """One applicable ``(kind, position, tag, value)`` for the current state."""
    hosted = system.hosted
    index = hosted.structural_index
    entries = index.entries
    parents, plain_leaves, block_leaves, plain_subtrees, blocks = [], [], [], [], []
    for i, entry in enumerate(entries):
        node = entry.hosted_node
        if entry.block_id is None:
            if not isinstance(node, Element):
                continue
            if node.is_leaf_element:
                plain_leaves.append(i)
            elif node.text_value() is None:
                parents.append(i)
            if entry.parent is not None and subtree_size(entry) <= 25:
                plain_subtrees.append(i)
        else:
            blocks.append(i)
            single_leaf_block = (
                index.block_table.get(entry.block_id) == entry.interval
                and not entry.children
                and len(entry.member_ids) == 1
            )
            if single_leaf_block:
                block_leaves.append(i)
    sensitive = sorted(
        tag for tag in hosted.encrypted_tags if not tag.startswith("@")
    )
    kind = rng.choice(
        ["insert_block"] * 3 + ["insert_plain"] * 2 + ["update_block"] * 3
        + ["update_plain", "delete_block", "delete_block", "delete_plain"]
    )
    if kind == "insert_block" and parents and sensitive:
        tag = rng.choice(sensitive)
        plan = hosted.field_plans.get(tag)
        if plan is not None and plan.is_numeric:
            value = str(rng.randint(1, 99))
        else:
            value = f"w{step}-{rng.randint(0, 9)}"
        return "insert", rng.choice(parents), tag, value
    if kind == "insert_plain" and parents:
        return "insert", rng.choice(parents), "note", f"n{step}"
    if kind == "update_block" and block_leaves:
        # Half the time repeat a value some occurrence may already hold.
        value = f"x{step % 7}" if rng.random() < 0.5 else f"y{step}"
        return "update", rng.choice(block_leaves), "", value
    if kind == "update_plain" and plain_leaves:
        return "update", rng.choice(plain_leaves), "", f"p{step}"
    if kind == "delete_block" and blocks:
        return "delete", rng.choice(blocks), "", ""
    if kind == "delete_plain" and plain_subtrees:
        return "delete", rng.choice(plain_subtrees), "", ""
    return None


def apply(system, engine_class, operation):
    """What ``SecureXMLSystem``'s update methods do, minus path resolution."""
    kind, position, tag, value = operation
    engine = engine_class(system.hosted, system._keyring)
    entry = system.hosted.structural_index.entries[position]
    if kind == "insert":
        engine.insert_element(entry, tag, value)
    elif kind == "update":
        engine.update_value(entry, value)
    else:
        engine.delete_element(entry)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_update_stream_matches_full_scan_engine(dataset):
    system, oracle_system = host(dataset), host(dataset)
    try:
        assert_same_state(system, oracle_system, "hosting")
        rng = random.Random(f"updates-oracle:{dataset}")
        applied = {"insert": 0, "update": 0, "delete": 0}
        refused = 0
        step = 0
        while sum(applied.values()) < STREAM_LENGTH:
            step += 1
            assert step < 20 * STREAM_LENGTH, "stream starved"
            operation = choose_operation(system, rng, step)
            if operation is None:
                continue
            outcomes = []
            for side, engine_class in (
                (system, UpdateEngine),
                (oracle_system, FullScanUpdateEngine),
            ):
                try:
                    apply(side, engine_class, operation)
                    outcomes.append(None)
                except (UpdateError, ValueError) as error:
                    outcomes.append((type(error), str(error)))
            assert outcomes[0] == outcomes[1], operation
            assert_same_state(system, oracle_system, (step, operation))
            if outcomes[0] is None:
                applied[operation[0]] += 1
            else:
                refused += 1
        # The stream really exercised every kind of write.
        assert min(applied.values()) >= STREAM_LENGTH // 10, applied
        assert refused <= STREAM_LENGTH // 4, refused
        # ... and both hostings still answer, identically.
        for query in ("//note", "//*[1]", f"//{system.hosted.root_tag}/*"):
            assert (
                system.query(query).canonical()
                == oracle_system.query(query).canonical()
            )
    finally:
        system.close()
        oracle_system.close()


# ----------------------------------------------------------------------
# Hosting: the bulk-loaded trees hold what the insert loop built
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "build, constraints",
    [
        (build_healthcare_database, healthcare_constraints),
        (lambda: build_xmark_database(200, seed=2006), xmark_constraints),
        (lambda: build_nasa_database(200, seed=2006), nasa_constraints),
    ],
    ids=["healthcare", "xmark-200", "nasa-200"],
)
def test_hosted_value_index_equals_insert_loop(build, constraints):
    system = SecureXMLSystem.host(build(), constraints(), scheme="opt")
    try:
        hosted = system.hosted
        looped = build_value_index_by_insertion(
            hosted.occurrences,
            hosted.field_plans,
            hosted.field_tokens,
            system._keyring.ope,
        )
        assert set(looped.fields) == set(hosted.value_index.fields)
        for token, entries in hosted.value_index.fields.items():
            KeyRuns(entries.keys, entries.runs)  # refuses keys out of order
            assert list(entries.items()) == list(looped.fields[token].items())
            assert len(entries) == len(looped.fields[token])
    finally:
        system.close()


# ----------------------------------------------------------------------
# What reaches disk is what the full-scan commit wrote
# ----------------------------------------------------------------------
#: sha256 of the files ``save_system`` wrote for a fixed XMark-20 hosting,
#: at hosting and after five writes.  Equal bytes mean a hosting saved by
#: the pinning commit *is* the hosting this one saves — DSI records, block
#: table and every value-index row, in order.  First taken at the commit
#: before the O(change) engine (insert-loop B-trees, memo-dict OPE,
#: full-scan surgery) and unmoved by it; taken again, once, for hosted
#: format 3 (new PRF, stamped writes, ``block_stamps`` / ``max_block_id``
#: in the client state) — the ``_V2`` digests are what they were.
SAVED_MASTER_KEY = b"saved-hosting-master-key-0123456789"
SAVED_AT_HOSTING = {
    "server_meta.json": "2dc7ae25d5bec0c1354d631e7f18e73405acda681b8353a0390ce503abc61edd",
    "client_state.json": "af79728c52cc416c55add0d6389495eb428f16464cf0e7c97004ba3a7cf1d90e",
    "hosted.xml": "2a57924c81df87bf857ce9ea5b9f94429c8db1d2cf518b54a61f251a488b7f86",
}
SAVED_AFTER_WRITES = {
    "server_meta.json": "d0c27210ffb83f5267870318fa21f7ea07ec7738890eabc885c9538df56e2c02",
    "client_state.json": "33040953f9db91e8094e7997d519f6443b1a1278cf70751f6c355879b0fd4737",
    "hosted.xml": "1e6205d967ded36b5b0e35ba51bc1f5e13e1a9a20b06a4ec37dcf18dd9a91d41",
}
PINNED_V2 = {
    "at_hosting": {
        "server_meta.json": "b7837a3e68e0a00a621adcbdda154e165f8f23551eb1d951e7db4a43e8d15874",
        "client_state.json": "14ba73862194cda8a981af0b4a075387b5e89841d8716b4144144fb0b211e2d4",
        "hosted.xml": "d6eafedf186bfeb5e3812afb413b3e453d27966a960c6e5918d22e5915e437c6",
    },
    "after_writes": {
        "server_meta.json": "26dad55d1426dfb7c95700167cc1fe2d787d73eb6f5021c125263289b3ee410e",
        "client_state.json": "e171fee56ccf001c6b850a7aea49969981487a96d1918a0cd2f980c46f5ae48c",
        "hosted.xml": "8f79f3cae13d7ccb280b6885cf58be16d15c6d501dfa6fc847a0464a90143b3a",
    },
}
SAVED_QUERIES = [
    "//creditcard",
    "//person/name",
    "//note",
    "//person[creditcard='5555 6666 7777 8888']/@id",
    "//person[profile/age>30]/name",
]


def _saved_digests(directory):
    digests = {}
    for name in SAVED_AT_HOSTING:
        with open(os.path.join(directory, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def test_saved_hosting_bytes_pinned_and_reload_answers(tmp_path, monkeypatch):
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)  # no REPRO_* variable may move a byte
    system = SecureXMLSystem.host(
        build_xmark_database(20),
        xmark_constraints(),
        scheme="opt",
        master_key=SAVED_MASTER_KEY,
    )
    try:
        save_system(system, str(tmp_path / "hosting"))
        assert _saved_digests(str(tmp_path / "hosting")) == SAVED_AT_HOSTING
        system.update_value(
            "//person[@id='person3']/creditcard", "1111 2222 3333 4444"
        )
        system.insert_element(
            "//person[@id='person5']", "creditcard", "5555 6666 7777 8888"
        )
        system.insert_element("//person[@id='person5']", "note", "plain")
        system.delete_element("//person[@id='person7']/name")
        system.delete_element("//person[@id='person9']")
        save_system(system, str(tmp_path / "written"))
        assert _saved_digests(str(tmp_path / "written")) == SAVED_AFTER_WRITES
        expected = [system.query(q).canonical() for q in SAVED_QUERIES]
    finally:
        system.close()
    loaded = load_system(str(tmp_path / "written"), SAVED_MASTER_KEY)
    try:
        assert [loaded.query(q).canonical() for q in SAVED_QUERIES] == expected
        for entries in loaded.hosted.value_index.fields.values():
            KeyRuns(entries.keys, entries.runs)  # refuses keys out of order
    finally:
        loaded.close()
