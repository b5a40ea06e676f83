"""The codec memo: an unchanged answer is encoded once and decoded once.

On a wire-cache miss the server still verifies the request and runs the
join; when the evaluation ships the very ``Fragment`` objects it last
sent for that request payload, with equal counts, it re-seals the payload
kept in the sealed blob instead of encoding it again.  On a sealed-blob
miss the client still unseals — MAC and freshness at the live anchor —
and only then reuses the response decoded from a byte-identical payload.
Both records live in the caches they extend (``Server._wire_cache``,
``Client._response_cache``), keyed by 1-tuples, and outlive a commit only
if the epoch that just ended used them.  The properties:

* over a seeded write/read sequence, in process and over a socket, every
  response payload is byte-identical to a fresh
  ``encode_response(server.answer(...))``, and some were re-sealed;
* a pre-write response replayed after a commit is refused as a rollback
  although its payload is in the client's record, and a tampered blob
  fails its MAC although its payload is: nothing is answered from a
  record before the blob verifies;
* a write to a block a shape ships makes the next read encode and decode
  afresh, and it answers the new value;
* across 50 commits, each record set holds only what the last two epochs
  used, and each cache never more than ``EpochCache.BOUND`` sealed blobs
  and ``EpochCache.BOUND`` pairs of entries;
* after ``flush_caches()`` a read encodes and decodes.
"""

import random

import pytest

import repro.core.client as client_module
import repro.core.server as server_module
from repro.core.epoch_cache import EpochCache
from repro.core.integrity import (
    FRESH_OVERHEAD,
    RollbackDetectedError,
    TamperedResponseError,
    envelope_payload,
)
from repro.core.system import QueryFailedError, SecureXMLSystem
from repro.netsim.message import decode_query, encode_response
from repro.serving import ServingServer, remote_system
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints

#: Hot shapes over NASA-40: plaintext selections, encrypted outputs and a
#: value predicate over an encrypted field.
SHAPES = (
    "//dataset/title",
    "//distribution/publisher",
    "//journal/author[1]/initial",
    "//creation/date",
    "//author/last",
    "//dataset/note",
    "//distribution/last",
    "//author[age>40]/last",
)


def nasa_system():
    return SecureXMLSystem.host(
        build_nasa_database(40, seed=13), nasa_constraints(), scheme="opt"
    )


def nasa_writes(system, cycles):
    """Five-step cycles on random datasets: an encrypted insert, a
    plaintext insert, an update of the inserted leaf, two deletes."""
    titles = sorted(set(system.query("//dataset/title").values()))
    rng = random.Random(47)
    for cycle in range(cycles):
        dataset = f"//dataset[title='{rng.choice(titles)}']"
        yield "insert_element", (f"{dataset}/distribution", "last", f"w{cycle}")
        yield "insert_element", (dataset, "note", f"n{cycle}")
        yield "update_value", (f"{dataset}/distribution/last", f"x{cycle}")
        yield "delete_element", (f"{dataset}/distribution/last",)
        yield "delete_element", (f"{dataset}/note",)


class Codec:
    """Counts of the server's encodes and the client's decodes."""

    def __init__(self, monkeypatch):
        self.encodes = self.decodes = 0
        encode, decode = server_module.encode_response, client_module.decode_response

        def encoding(response):
            self.encodes += 1
            return encode(response)

        def decoding(payload):
            self.decodes += 1
            return decode(payload)

        monkeypatch.setattr(server_module, "encode_response", encoding)
        monkeypatch.setattr(client_module, "decode_response", decoding)

    def counts(self):
        return self.encodes, self.decodes


def watch_payloads(server, monkeypatch):
    """Record, per evaluated request, the payload sent and a fresh
    encoding of a fresh evaluation; checked by the caller, so a serving
    thread never raises from here."""
    answer_wire, answer = server.answer_wire, server.answer
    sent, evaluations = [], []

    def counting_answer(query):
        evaluations.append(query)
        return answer(query)

    def watching(request):
        before = len(evaluations)
        blob = answer_wire(request)
        if len(evaluations) > before:
            query = decode_query(envelope_payload(request))
            sent.append((envelope_payload(blob), encode_response(answer(query))))
        return blob

    monkeypatch.setattr(server, "answer", counting_answer)
    monkeypatch.setattr(server, "answer_wire", watching)
    return sent


def run_sequence(reader, writer, cycles=6, seed=11):
    """Between writes, every hot shape once and Zipf-drawn repeats, in a
    seeded order: each write meets a read of each shape it touched."""
    rng = random.Random(seed)
    weights = [1 / rank for rank in range(1, len(SHAPES) + 1)]
    for method, args in nasa_writes(writer, cycles):
        reads = [*SHAPES, *rng.choices(SHAPES, weights, k=8)]
        rng.shuffle(reads)
        for query in reads:
            reader.query(query)
        getattr(writer, method)(*args)


class TestEveryResealedPayloadIsAFreshEncoding:
    def test_in_process(self, monkeypatch):
        system = nasa_system()
        codec = Codec(monkeypatch)
        sent = watch_payloads(system.server, monkeypatch)
        run_sequence(system, system)
        assert all(payload == fresh for payload, fresh in sent)
        resealed = len(sent) - codec.encodes
        assert 0 < resealed < len(sent)

    def test_over_a_socket(self, monkeypatch):
        local = nasa_system()
        codec = Codec(monkeypatch)
        sent = watch_payloads(local.server, monkeypatch)
        door = ServingServer(max_inflight=4)
        door.register_tenant("t0", local)
        address = door.start()
        try:
            remote = remote_system(local, address, "t0")
            try:
                run_sequence(remote, remote)
            finally:
                remote.close()
        finally:
            door.stop()
        assert all(payload == fresh for payload, fresh in sent)
        assert 0 < len(sent) - codec.encodes < len(sent)


class TestNothingIsAnsweredFromARecordBeforeTheBlobVerifies:
    QUERY = "//insurance/@coverage"
    #: Rewrites block 6, which ``QUERY`` does not ship.
    WRITE = ("//patient[pname='Matt']/treat/disease", "measles")

    @pytest.fixture
    def system(self):
        return SecureXMLSystem.host(
            build_healthcare_database(), healthcare_constraints()
        )

    def sealed(self, system):
        client = system.client
        return system.server.answer_wire(
            client.seal_request(client.translate(self.QUERY))
        )

    def test_a_pre_write_response_replayed_after_a_commit_is_refused(
        self, system, monkeypatch
    ):
        old = self.sealed(system)
        system.client.open_response(old)
        system.update_value(*self.WRITE)
        # The payload is held: the fresh read after the commit reuses it.
        codec = Codec(monkeypatch)
        system.query(self.QUERY)
        assert codec.counts() == (0, 0)
        assert (envelope_payload(old),) in system.client._response_cache.live()
        with pytest.raises(RollbackDetectedError):
            system.client.open_response(old)
        monkeypatch.setattr(system.server, "answer_wire", lambda _: old)
        with pytest.raises(QueryFailedError) as failure:
            system.query(self.QUERY)
        assert isinstance(failure.value.__cause__, RollbackDetectedError)

    @pytest.mark.parametrize("at", [4, 12, FRESH_OVERHEAD - 1])
    def test_a_tampered_blob_fails_its_mac(self, system, at):
        """Epoch, root or tag flipped, payload intact and held."""
        blob = self.sealed(system)
        system.client.open_response(blob)
        assert (envelope_payload(blob),) in system.client._response_cache.live()
        tampered = bytearray(blob)
        tampered[at] ^= 1
        with pytest.raises(TamperedResponseError):
            system.client.open_response(bytes(tampered))


def test_a_write_to_a_shipped_block_encodes_and_decodes_afresh(monkeypatch):
    system = SecureXMLSystem.host(
        build_healthcare_database(), healthcare_constraints()
    )
    query = "//treat/disease"
    for _ in range(2):
        assert "leukemia" in system.query(query).values()
    codec = Codec(monkeypatch)
    system.update_value("//patient[pname='Matt']/treat/disease", "measles")
    assert sorted(system.query(query).values()) == [
        "diarrhea", "diarrhea", "measles",
    ]
    assert codec.counts() == (1, 1)


@pytest.mark.parametrize("per_epoch", [5, 90, 200])
def test_records_hold_only_what_the_last_two_epochs_used(per_epoch, monkeypatch):
    """``per_epoch`` fresh XPaths between commits: a record older than the
    epoch before is gone, and the bound holds throughout — a blob and a
    record per miss, so ``BOUND`` pairs."""
    system = SecureXMLSystem.host(
        build_healthcare_database(), healthcare_constraints()
    )
    server, client = system.server, system.client
    answer_wire = server.answer_wire
    used = []  # per epoch: (request payloads, response payloads)

    def recording(request):
        blob = answer_wire(request)
        used[-1][0].add(envelope_payload(request))
        used[-1][1].add(envelope_payload(blob))
        return blob

    monkeypatch.setattr(server, "answer_wire", recording)
    n = 0
    for epoch in range(50):
        used.append((set(), set()))
        for _ in range(per_epoch):
            system.query(f"//patient[age>{n % 60}][age<{100 + n}]/pname")
            n += 1
        requests = set().union(*(u[0] for u in used[-2:]))
        responses = set().union(*(u[1] for u in used[-2:]))
        wire = server._wire_cache.live()
        opened = client._response_cache.live()
        for held in (wire, opened):
            assert len(held) <= 2 * EpochCache.BOUND
            assert sum(key.__class__ is bytes for key in held) <= EpochCache.BOUND
        assert {
            bytes(key[0]) for key in wire if key.__class__ is tuple
        } <= requests
        assert {
            bytes(key[0]) for key in opened if key.__class__ is tuple
        } <= responses
        system.update_value(
            "//patient[pname='Matt']/treat/disease", f"d{epoch % 2}"
        )
    assert system.hosted.epoch == 50


def test_after_flush_caches_a_read_encodes_and_decodes(monkeypatch):
    system = SecureXMLSystem.host(
        build_healthcare_database(), healthcare_constraints()
    )
    query = "//treat/disease"
    for _ in range(3):
        system.query(query)
    codec = Codec(monkeypatch)
    system.query(query)
    assert codec.counts() == (0, 0)
    system.flush_caches()
    system.query(query)
    assert codec.counts() == (1, 1)
    # A commit keeps the records this epoch used, so the next read
    # re-seals and reuses; a flush empties them, commit or not.
    system.update_value("//patient[pname='Betty']/age", "35")
    system.query(query)
    assert codec.counts() == (1, 1)
    system.flush_caches()
    system.update_value("//patient[pname='Betty']/age", "36")
    system.query(query)
    assert codec.counts() == (2, 2)
