"""What the server sees is pinned, byte for byte.

Hosted ciphertext, block tags, the freshness root and every sealed wire
blob of a fixed hosting must never move with a performance change on the
client.  They have moved exactly once since they were first pinned: hosted
format 3 (one HMAC-SHA256 PRF under OPE and every derived stream) redrew
every decoy, weight and OPE rectangle, and ``PINNED`` was taken again at
that commit.  The *documents* did not move — ``tests/test_workloads.py``
pins them — so this is the same plaintext under a new hosting.
"""

import hashlib
import os

from repro.core.system import SecureXMLSystem
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
    "wire": "fa8c8a24aac5c1a488d3b709e7478f7efb484b41c7e01a2ce0f086b9368de964",
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


def _digest_by_id(table):
    digest = hashlib.sha256()
    for block_id in sorted(table):
        digest.update(block_id.to_bytes(8, "big"))
        digest.update(table[block_id])
    return digest.hexdigest()


def test_xmark_20_hosting_and_wire_bytes_unchanged(monkeypatch):
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)  # CI exports backend/shard/leakage knobs
    system = SecureXMLSystem.host(
        build_xmark_database(20), xmark_constraints(), scheme="opt"
    )
    try:
        hosted = system.hosted
        wire = hashlib.sha256()
        for query in QUERIES:
            request = system.client.seal_request(
                system.client.translate(query), cache_key=query
            )
            wire.update(request)
            wire.update(system.server.answer_wire(request))
        actual = {
            "blocks": _digest_by_id(hosted.blocks),
            "block_tags": _digest_by_id(hosted.block_tags),
            "state_root": hosted.state_root().hex(),
            "hosted_root": hashlib.sha256(
                serialize(hosted.hosted_root).encode("utf-8")
            ).hexdigest(),
            "wire": wire.hexdigest(),
        }
    finally:
        system.close()
    assert actual == PINNED
    assert all(actual[part] != PINNED_V2[part] for part in PINNED_V2)
