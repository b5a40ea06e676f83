"""What the server sees is pinned, byte for byte.

Hosted ciphertext, block tags, the freshness root and every sealed wire
blob of a fixed hosting must never move with a performance change on the
client.  They have moved exactly once since they were first pinned: hosted
format 3 (one HMAC-SHA256 PRF under OPE and every derived stream) redrew
every decoy, weight and OPE rectangle, and ``PINNED`` was taken again at
that commit.  The *documents* did not move — ``tests/test_workloads.py``
pins them — so this is the same plaintext under a new hosting.

The wire is pinned as two digests: every sealed request, and every sealed
response.  Wire protocol 2 (fragments cross as an ancestor row table and
a text column) re-pinned ``responses`` once, and wire protocol 3 (no naive
flag on a response) once more; ``requests`` was taken at the commit before
protocol 2 and did not move.
"""

import hashlib
import os

from repro.core.system import SecureXMLSystem
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints
from repro.xmldb.serializer import serialize

QUERIES = [
    "//people/person",
    "//creditcard",
    "//person/@id",
    "//income",
    "//address/preceding-sibling::name",
    "/site/people",
    "//auction/itemref[1]",
    "//person[age>'40']/name",
]

PINNED = {
    "blocks": "263aeed57869ecb4143e4a9b13bd0f7577ef153d9b5b0c5f0fd8ca0550727290",
    "block_tags": "15138c710fe33b5af567d0d94b6fef72daa2680ec76ba5783029e6d882805393",
    "state_root": "5ed4aa5a947963b61935aacdd8d8747892b5aa197e1ef6bd0446eef617c2ea55",
    "hosted_root": "b01c0bf26c43d99138f0b7facea0220fd3c9046d589c48fadff9cfd5f5d4814c",
    "requests": "12003ea82c0fd378b2864b406d65cf2990afda1fb4ad6d01a7fefddd7f7a42fb",
    "responses": "d87d2964caaefc0543961d4a5ae0c55229f4f903b8c07450de183ca9bf702fa7",
}

#: The same hosting under hosted format 2 (PRs 12–19), kept so the diff that
#: re-pinned shows what moved: every digest, because decoy lengths and
#: values come from the decoy stream and every ciphertext follows from them.
PINNED_V2 = {
    "blocks": "346c175bd07ccc1c9e6f54f04ede19d6c3787cd31de2751e72156eb58f55c2f4",
    "block_tags": "4f72e6e988c77566a16f701f057bebf158c852f9b83849f852356b182b26c1d1",
    "state_root": "1634661c1a86c006e99aa49b0d1390d2b3e99fba64b671d8db8dc23afe43b396",
    "hosted_root": "cfaeffd5b09236bd480b344b862173223a4ccbba8d1010e824124f7eaa53c4a6",
    "wire": "35316e9fdfbf5249946afb034e0d142e3cb8609b64f4af5b6d99542806fb5157",
}


#: The server's two indexes and the NASA-20 hosting, taken at the commit
#: before hosting encrypted its blocks in one lock-step pass.  NASA's
#: chains are shorter and its scheme binds more endpoint paths per
#: context than XMark's, so the two documents exercise different shapes.
PINNED_INDEXES = {
    "xmark-20": {
        "value_index": "d7e95dd481c84ce24f046288fd0e62f6f7d10d3cd54b3d1b9b05774e4027b639",
        "dsi": "abb637b26d7495fe3c03331cfe479fa245986fd74e870f9288c656e25d3d6e64",
    },
    "nasa-20": {
        "blocks": "815b61154c599144c0f16df881b08fa5f96a4791ef77943911153367e8a6f9d5",
        "block_tags": "3185c527adb6101dd1d2ab7d464db352781a19140bc49635c241c1656f01977f",
        "state_root": "064a8f9b0c4e2247f73e2d9fe858923991b0a4d5d29933ef93e2c6c979d7e9b5",
        "hosted_root": "d85e660030bb2f41bf13646a52fbb5e91d3f9ff12d8f55885734d99cc7e3f0d8",
        "value_index": "a95a605438707dc2c971f39d105d5f322a699ac23cdf265760ef130460c9848e",
        "dsi": "7b973653963c5e20f78ba6bf2e30f15bf419bd3c3327552aa72d0a729f1873a6",
        "requests": "b510d024d1f194e5dea5422eaaf35c57a696bb2d90c5bbd9b87ec7ee1d344059",
        "responses": "2207f5e859e046f6aa4f89db834b8eac461839267ec90e7de10432fa5b2d918b",
    },
}

#: ``responses`` under wire protocol 2, whose response record carried an
#: ``"n"`` (naive) column: the history of the ``responses`` pins above.
PINNED_RESPONSES_V2 = {
    "xmark-20": "ba479e8fa6ea5b3091098029a43f735e27d8df89f4a56b2eb23efb8f411a9032",
    "nasa-20": "b8b1cdc02d8d69d3f75eab49e79a8f7f82645c0dd63da7aa380999d2f4f9cf8c",
}

#: Requests and responses hashed together under wire protocol 1, when a
#: response was a list of per-fragment ``{"p": path, "x": text}`` records:
#: the history of the ``requests`` + ``responses`` pair above.
PINNED_WIRE_V1 = {
    "xmark-20": "fa8c8a24aac5c1a488d3b709e7478f7efb484b41c7e01a2ce0f086b9368de964",
    "nasa-20": "2f2e1c744941cc8ef42fdf8dbf8a1832c2a4ac1eeb41b2cc63482b7391e12dd4",
}

NASA_QUERIES = [
    "//dataset/title",
    "//author/last",
    "//author[initial='K']/age",
    "//dataset[distribution/city='Pasadena']//publisher",
    "//dataset[@subject='photometry']/altname",
]


def _digest_by_id(table):
    digest = hashlib.sha256()
    for block_id in sorted(table):
        digest.update(block_id.to_bytes(8, "big"))
        digest.update(table[block_id])
    return digest.hexdigest()


def _value_index_digest(value_index):
    """Every row of every field's index: token, OPE key, block id."""
    digest = hashlib.sha256()
    for token in sorted(value_index.fields):
        for key, block_id in value_index.fields[token].items():
            digest.update(f"{token}\t{key}\t{block_id}\n".encode())
    return digest.hexdigest()


def _dsi_digest(structural_index):
    """Every DSI entry in interval order: tag token, interval, block."""
    digest = hashlib.sha256()
    for entry in structural_index.all_entries():
        interval = entry.interval
        digest.update(
            f"{entry.key}\t{interval.low!r}\t{interval.high!r}\t"
            f"{entry.block_id}\n".encode()
        )
    return digest.hexdigest()


def _wire_digests(system, queries):
    """Every sealed request, and every sealed response, in query order."""
    requests, responses = hashlib.sha256(), hashlib.sha256()
    for query in queries:
        request = system.client.seal_request(
            system.client.translate(query), cache_key=query
        )
        requests.update(request)
        responses.update(system.server.answer_wire(request))
    return {
        "requests": requests.hexdigest(),
        "responses": responses.hexdigest(),
    }


def _clear_knobs(monkeypatch):
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)


def test_xmark_20_index_bytes_unchanged(monkeypatch):
    _clear_knobs(monkeypatch)
    system = SecureXMLSystem.host(
        build_xmark_database(20), xmark_constraints(), scheme="opt"
    )
    try:
        hosted = system.hosted
        actual = {
            "value_index": _value_index_digest(hosted.value_index),
            "dsi": _dsi_digest(hosted.structural_index),
        }
    finally:
        system.close()
    assert actual == PINNED_INDEXES["xmark-20"]


def test_nasa_20_hosting_index_and_wire_bytes_unchanged(monkeypatch):
    _clear_knobs(monkeypatch)
    system = SecureXMLSystem.host(
        build_nasa_database(20), nasa_constraints(), scheme="opt"
    )
    try:
        hosted = system.hosted
        actual = {
            "blocks": _digest_by_id(hosted.blocks),
            "block_tags": _digest_by_id(hosted.block_tags),
            "state_root": hosted.state_root().hex(),
            "hosted_root": hashlib.sha256(
                serialize(hosted.hosted_root).encode("utf-8")
            ).hexdigest(),
            "value_index": _value_index_digest(hosted.value_index),
            "dsi": _dsi_digest(hosted.structural_index),
            **_wire_digests(system, NASA_QUERIES),
        }
    finally:
        system.close()
    assert actual == PINNED_INDEXES["nasa-20"]


def test_xmark_20_hosting_and_wire_bytes_unchanged(monkeypatch):
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)  # no REPRO_* variable may move a byte
    system = SecureXMLSystem.host(
        build_xmark_database(20), xmark_constraints(), scheme="opt"
    )
    try:
        hosted = system.hosted
        actual = {
            "blocks": _digest_by_id(hosted.blocks),
            "block_tags": _digest_by_id(hosted.block_tags),
            "state_root": hosted.state_root().hex(),
            "hosted_root": hashlib.sha256(
                serialize(hosted.hosted_root).encode("utf-8")
            ).hexdigest(),
            **_wire_digests(system, QUERIES),
        }
    finally:
        system.close()
    assert actual == PINNED
    assert all(
        actual[part] != PINNED_V2[part] for part in PINNED_V2 if part in actual
    )
