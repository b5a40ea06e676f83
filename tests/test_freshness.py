"""Freshness & anti-rollback envelope: rxi2 seal, Merkle anchor, attacker.

The contract under test extends the "exact answer or typed error"
invariant to a *rollback* adversary: a channel that replays earlier
validly-MACed responses.  Every query against a rolling-back channel
must return the byte-identical fresh answer or raise a typed freshness
error — never a stale answer.  With replicas, one pinned at an old
epoch must be demoted, failed over, resynced and re-admitted, with
answers byte-identical to the no-fault run throughout.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.core.integrity import (
    FRESH_OVERHEAD,
    MAGIC_FRESH,
    BlockMerkleTree,
    FreshnessError,
    IntegrityError,
    RollbackDetectedError,
    StaleStateError,
    TamperedResponseError,
    envelope_payload,
    seal,
    seal_fresh,
    unseal,
    unseal_fresh,
)
from repro.core.system import QueryFailedError, SecureXMLSystem
from repro.netsim.channel import Channel
from fault_channel import FaultPolicy, FaultRates, FaultyChannel
from repro.obs import MetricsRegistry

#: Reads of the process counter total.
metrics = MetricsRegistry()

KEY = b"freshness-unit-test-key-32-bytes"
ROOT = bytes(range(32))

#: Fault seeds for the sweeps; CI widens this via REPRO_CHAOS_SEEDS.
SEEDS = [
    int(token)
    for token in os.environ.get("REPRO_CHAOS_SEEDS", "0,1,2").split(",")
]

#: Queries whose *translation* is stable across the update below (the
#: updated field is SSN; no predicate tokens change), while their
#: *answers* do change — exactly the window a rollback attacker needs.
PROBE = "//patient[pname='Betty']/SSN"
QUERIES = (PROBE, "//SSN", "//patient/pname")


# ----------------------------------------------------------------------
# rxi2 envelope unit tests
# ----------------------------------------------------------------------
class TestFreshSeal:
    def test_roundtrip(self):
        blob = seal_fresh(KEY, b"payload", 7, ROOT)
        assert blob.startswith(MAGIC_FRESH)
        assert len(blob) == FRESH_OVERHEAD + len(b"payload")
        assert unseal_fresh(KEY, blob, 7, ROOT) == b"payload"

    def test_legacy_rxi1_seal_is_unchanged(self):
        blob = seal(KEY, b"payload")
        assert blob.startswith(b"rxi1")
        assert unseal(KEY, blob) == b"payload"

    def test_older_epoch_is_a_rollback(self):
        blob = seal_fresh(KEY, b"p", 3, ROOT)
        with pytest.raises(RollbackDetectedError) as excinfo:
            unseal_fresh(KEY, blob, 5, ROOT)
        assert excinfo.value.observed_epoch == 3
        assert excinfo.value.expected_epoch == 5
        assert excinfo.value.epoch_lag == 2

    def test_newer_epoch_is_stale_verifier_state(self):
        blob = seal_fresh(KEY, b"p", 9, ROOT)
        with pytest.raises(StaleStateError):
            unseal_fresh(KEY, blob, 5, ROOT)

    def test_root_mismatch_at_same_epoch_is_stale(self):
        blob = seal_fresh(KEY, b"p", 5, ROOT)
        with pytest.raises(StaleStateError):
            unseal_fresh(KEY, blob, 5, bytes(32))

    def test_freshness_errors_are_integrity_errors(self):
        assert issubclass(RollbackDetectedError, FreshnessError)
        assert issubclass(StaleStateError, FreshnessError)
        assert issubclass(FreshnessError, IntegrityError)

    def test_every_header_byte_is_bound_into_the_mac(self):
        """Flipping any bit of epoch, root, tag or payload must raise the
        *tamper* error — an attacker cannot forge a freshness signal."""
        blob = seal_fresh(KEY, b"some payload bytes", 5, ROOT)
        for offset in range(len(blob)):
            mangled = bytearray(blob)
            mangled[offset] ^= 0x01
            with pytest.raises(IntegrityError):
                unseal_fresh(KEY, bytes(mangled), 5, ROOT)

    def test_restamping_an_old_payload_fails_the_mac(self):
        """Splicing a newer (epoch, root) header onto an old tag+payload
        is exactly the attack the header-bound MAC exists to stop."""
        old = seal_fresh(KEY, b"stale answer", 3, ROOT)
        fresh_header = seal_fresh(KEY, b"x", 5, ROOT)[: len(MAGIC_FRESH) + 8 + 32]
        spliced = fresh_header + old[len(MAGIC_FRESH) + 8 + 32 :]
        with pytest.raises(TamperedResponseError):
            unseal_fresh(KEY, spliced, 5, ROOT)

    def test_truncated_blob_rejected(self):
        blob = seal_fresh(KEY, b"p", 1, ROOT)
        with pytest.raises(TamperedResponseError):
            unseal_fresh(KEY, blob[: FRESH_OVERHEAD - 1], 1, ROOT)

    def test_envelope_payload_strips_both_layouts(self):
        assert envelope_payload(seal_fresh(KEY, b"pay", 3, ROOT)) == b"pay"
        assert envelope_payload(seal(KEY, b"pay")) == b"pay"
        assert envelope_payload(b"raw") == b"raw"

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            seal_fresh(KEY, b"p", -1, ROOT)
        with pytest.raises(ValueError):
            seal_fresh(KEY, b"p", 0, b"short")


# ----------------------------------------------------------------------
# Merkle tree unit tests
# ----------------------------------------------------------------------
def original_root(tags):
    """The root by the definition, with no tree object involved."""
    level = [
        hashlib.sha256(
            b"leaf" + block_id.to_bytes(8, "big", signed=True) + tags[block_id]
        ).digest()
        for block_id in sorted(tags)
    ]
    while len(level) > 1:
        paired = [
            hashlib.sha256(b"node" + level[i] + level[i + 1]).digest()
            for i in range(0, len(level) - 1, 2)
        ]
        level = paired + ([level[-1]] if len(level) % 2 else [])
    return level[0]


class TestBlockMerkleTree:
    def test_empty_root_is_stable(self):
        assert BlockMerkleTree().root() == BlockMerkleTree().root()
        assert len(BlockMerkleTree().root()) == 32

    def test_root_depends_on_every_leaf(self):
        tags = {i: bytes([i + 1]) * 32 for i in range(7)}
        base = BlockMerkleTree(tags).root()
        for victim in tags:
            mutated = dict(tags)
            mutated[victim] = bytes(32)
            assert BlockMerkleTree(mutated).root() != base

    def test_insertion_order_is_irrelevant(self):
        tags = {i: bytes([i]) * 32 for i in range(9)}
        forward = BlockMerkleTree()
        backward = BlockMerkleTree()
        for i in sorted(tags):
            forward.set_leaf(i, tags[i])
        for i in sorted(tags, reverse=True):
            backward.set_leaf(i, tags[i])
        assert forward.root() == backward.root() == BlockMerkleTree(tags).root()

    def test_incremental_retag_matches_rebuild(self):
        """The O(log n) path update after ``update_value`` must land on
        the same root as a from-scratch rebuild, at every size."""
        for size in (1, 2, 3, 8, 13):
            tags = {i: bytes([i + 1]) * 32 for i in range(size)}
            tree = BlockMerkleTree(tags)
            tree.root()  # force the level arrays so set_leaf is a path walk
            for victim in tags:
                new_tag = bytes([victim + 101 % 251]) * 32
                tree.set_leaf(victim, new_tag)
                reference = dict(tags)
                reference[victim] = new_tag
                assert tree.root() == BlockMerkleTree(reference).root(), (
                    size, victim,
                )
                tree.set_leaf(victim, tags[victim])  # restore

    def test_remove_leaf(self):
        tags = {i: bytes([i]) * 32 for i in range(5)}
        tree = BlockMerkleTree(tags)
        tree.root()
        tree.remove_leaf(2)
        reference = {i: t for i, t in tags.items() if i != 2}
        assert tree.root() == BlockMerkleTree(reference).root()
        assert tree.leaf_count == 4

    def test_dirty_rebuild_hashes_each_leaf_once(self, monkeypatch):
        """Inserting or deleting a block re-hashes interior nodes only."""
        hashed = []
        original = BlockMerkleTree._leaf_hash
        monkeypatch.setattr(
            BlockMerkleTree,
            "_leaf_hash",
            staticmethod(
                lambda block_id, tag: hashed.append(block_id)
                or original(block_id, tag)
            ),
        )
        tags = {i: bytes([i + 1]) * 32 for i in range(0, 40, 2)}
        tree = BlockMerkleTree(tags)
        tree.root()
        assert sorted(hashed) == sorted(tags)
        del hashed[:]
        tree.set_leaf(7, b"\x07" * 32)  # a new block: positions shift
        tags[7] = b"\x07" * 32
        assert tree.root() == original_root(tags)
        tree.remove_leaf(12)
        del tags[12]
        assert tree.root() == original_root(tags)
        tree.set_leaf(7, b"\x08" * 32)  # retag while clean: one path
        tags[7] = b"\x08" * 32
        tree.set_leaf(41, b"\x29" * 32)
        tree.set_leaf(41, b"\x2a" * 32)  # retag while dirty
        tags[41] = b"\x2a" * 32
        assert tree.root() == original_root(tags)
        assert tree.leaf_count == len(tags)
        assert hashed == [7, 7, 41, 41]


# ----------------------------------------------------------------------
# Hosted-state anchoring
# ----------------------------------------------------------------------
class TestHostedAnchor:
    def test_updates_move_the_anchor(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        hosted = system.hosted
        epoch0, root0 = hosted.epoch, hosted.state_root()
        system.update_value(PROBE, "111111")
        assert hosted.epoch == epoch0 + 1
        root1 = hosted.state_root()
        assert root1 != root0
        system.update_value(PROBE, "222222")
        assert hosted.state_root() != root1

    def test_incremental_root_matches_rebuild_after_updates(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        hosted = system.hosted
        hosted.state_root()  # build the incremental tree
        system.update_value(PROBE, "333333")
        system.insert_element("//patient[pname='Betty']", "note", "hello")
        assert (
            hosted.state_root()
            == BlockMerkleTree(hosted.block_tags).root()
        )


# ----------------------------------------------------------------------
# Rollback attacker: monolithic sweep
# ----------------------------------------------------------------------
def _reference_run(document, constraints):
    """The no-fault transcript: answers before and after the update."""
    system = SecureXMLSystem.host(document, constraints, scheme="opt")
    before = {q: system.query(q).canonical() for q in QUERIES}
    system.update_value(PROBE, "987654")
    after = {q: system.query(q).canonical() for q in QUERIES}
    assert before[PROBE] != after[PROBE]
    return before, after


class TestRollbackSweepMonolithic:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_never_a_stale_answer(
        self, seed, healthcare_doc, healthcare_scs
    ):
        """≥20% stale-answer injection: byte-identical fresh answer or a
        typed error, and at least one rollback must be *detected* (the
        attack fires by construction: a pre-update snapshot exists)."""
        before, after = _reference_run(healthcare_doc, healthcare_scs)
        policy = FaultPolicy(
            seed=seed,
            server_to_client=FaultRates(rollback=0.35),
        )
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            channel=FaultyChannel(policy=policy),
        )
        start = metrics.counter_values()
        for query in QUERIES:  # record pre-update snapshots
            assert system.query(query).canonical() == before[query]
        system.update_value(PROBE, "987654")
        outcomes = []
        for _ in range(4):  # replay window: stale snapshots now differ
            for query in QUERIES:
                try:
                    answer = system.query(query)
                except QueryFailedError:
                    outcomes.append("typed-error")
                    continue
                assert answer.canonical() == after[query], query
                outcomes.append("fresh")
        assert "fresh" in outcomes  # retries do recover real answers
        delta = metrics.counters_delta(start)
        assert delta.get("faults_rolled_back", 0) > 0, seed
        assert delta.get("rollback_detected", 0) > 0, seed
        assert delta.get("freshness_failures", 0) > 0, seed

    def test_pre_update_rollback_is_harmless(
        self, healthcare_doc, healthcare_scs
    ):
        """Replaying a same-epoch response is not an attack: the bytes
        are identical, so the channel never substitutes and every
        answer is exact."""
        policy = FaultPolicy(
            seed=0, server_to_client=FaultRates(rollback=1.0)
        )
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            channel=FaultyChannel(policy=policy),
        )
        reference = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        for query in QUERIES:
            for _ in range(3):
                assert (
                    system.query(query).canonical()
                    == reference.query(query).canonical()
                )

    def test_failure_message_names_the_fault_kind(
        self, healthcare_doc, healthcare_scs
    ):
        """Satellite: the one-line error is diagnosable on its own."""
        policy = FaultPolicy(
            seed=1, server_to_client=FaultRates(rollback=1.0)
        )
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            channel=FaultyChannel(policy=policy),
        )
        system.query(PROBE)  # record the snapshot
        system.update_value(PROBE, "424242")
        with pytest.raises(QueryFailedError) as excinfo:
            system.query(PROBE)
        message = str(excinfo.value)
        assert "attempts" in message
        assert "freshness" in message
        assert "last error RollbackDetectedError" in message
        assert "last fault rollback" in message


# ----------------------------------------------------------------------
# Rollback attacker: replica sweep + pinned stale replica
# ----------------------------------------------------------------------
class TestARetryRetranslates:
    """A plan is as of an epoch.  The attempt after a freshness failure
    seals one made under the epoch it runs at, not the one the commit
    that failed it has just re-planned."""

    QUERY = "//patient[SSN='276543']/pname"

    def test_a_commit_between_seal_and_answer(
        self, healthcare_doc, healthcare_scs, monkeypatch
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        assert system.query(self.QUERY).values() == ["Matt"]
        answer_wire, requests = system.server.answer_wire, []

        def commit_then_answer(request):
            if not requests:  # another handle's write, mid-flight
                system.delete_element("//patient[pname='Betty']/SSN")
            requests.append(request)
            return answer_wire(request)

        monkeypatch.setattr(system.server, "answer_wire", commit_then_answer)
        start = metrics.counter_values()
        # The old plan's key ranges, run over the rebuilt value index,
        # select nothing: sealed, verified, and wrong.
        assert system.query(self.QUERY).values() == ["Matt"]
        trace = system.last_trace
        assert (trace.retries, trace.plan) == (1, "axis")
        delta = metrics.counters_delta(start)
        assert delta["rollback_detected"] == 1
        assert delta["plan_cache_misses"] == 2  # the delete's, the retry's

    def test_a_retry_without_a_commit_is_a_plan_cache_hit(
        self, healthcare_doc, healthcare_scs
    ):
        policy = FaultPolicy(seed=3, server_to_client=FaultRates(corrupt=0.5))
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            channel=FaultyChannel(policy=policy),
        )
        start = metrics.counter_values()
        retries = 0
        for _ in range(8):
            assert system.query(self.QUERY).values() == ["Matt"]
            retries += system.last_trace.retries
        delta = metrics.counters_delta(start)
        assert retries > 0
        assert delta["plan_cache_misses"] == 1
        assert delta["plan_cache_hits"] == 7 + retries


class TestRollbackCluster:
    """The rollback attacker against R replicas of one server."""

    def host(self, document, constraints, policies, **kwargs):
        """One replica per policy; ``None`` is a clean channel."""
        return SecureXMLSystem.host(
            document, constraints, scheme="opt",
            channel=[
                Channel() if policy is None else FaultyChannel(policy=policy)
                for policy in policies
            ],
            **kwargs,
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cluster_sweep_never_a_stale_answer(
        self, seed, healthcare_doc, healthcare_scs
    ):
        before, after = _reference_run(healthcare_doc, healthcare_scs)
        system = self.host(
            healthcare_doc, healthcare_scs,
            [
                FaultPolicy(
                    seed=seed * 31 + replica,
                    server_to_client=FaultRates(rollback=0.3),
                )
                for replica in range(3)
            ],
        )
        start = metrics.counter_values()
        for query in QUERIES:
            assert system.query(query).canonical() == before[query]
        system.update_value(PROBE, "987654")
        outcomes = []
        for _ in range(4):
            for query in QUERIES:
                try:
                    answer = system.query(query)
                except QueryFailedError:
                    outcomes.append("typed-error")
                    continue
                assert answer.canonical() == after[query], query
                outcomes.append("fresh")
        assert "fresh" in outcomes
        delta = metrics.counters_delta(start)
        assert delta.get("faults_rolled_back", 0) > 0, seed
        assert delta.get("freshness_failures", 0) > 0, seed

    def test_pinned_stale_replica_demoted_resynced_readmitted(
        self, healthcare_doc, healthcare_scs
    ):
        """One replica of two frozen at an old epoch: queries still
        succeed via failover, the replica is demoted then resynced and
        re-admitted, and every answer is byte-identical to the no-fault
        run."""
        reference = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        system = self.host(
            healthcare_doc, healthcare_scs,
            [FaultPolicy(pin_stale=True), None],
        )
        start = metrics.counter_values()

        def run_phase():
            for query in QUERIES:
                assert (
                    system.query(query).canonical()
                    == reference.query(query).canonical()
                ), query
            return metrics.counters_delta(start)

        run_phase()  # pins the pre-update snapshots
        system.update_value(PROBE, "987654")
        reference.update_value(PROBE, "987654")
        stats = run_phase()  # pinned replica serves stale → demote + failover

        assert stats["replica_demotions"] >= 1
        assert stats["replica_resyncs"] >= 1
        assert stats["query_retries"] >= 1
        lag = system.observability().metrics.snapshot()["histograms"][
            "replica_epoch_lag"
        ]
        assert lag["max"] >= 1

        # re-admitted replica now serves fresh state
        demotions_after_resync = run_phase()["replica_demotions"]

        system.update_value(PROBE, "111222")
        reference.update_value(PROBE, "111222")
        stats = run_phase()  # pins again → a second demote/resync cycle
        assert stats["replica_demotions"] > demotions_after_resync
        assert stats["replica_resyncs"] >= 2

    def test_all_replicas_stale_raises_typed_error(
        self, healthcare_doc, healthcare_scs
    ):
        """When *every* replica is pinned stale, the query fails with
        the typed error — never a stale answer — and the message
        carries the diagnosis."""
        system = self.host(
            healthcare_doc, healthcare_scs,
            [FaultPolicy(pin_stale=True), FaultPolicy(pin_stale=True)],
        )
        # Cycle 1 seeds replica 0's recording; the post-update query
        # fails over to replica 1 (seeding *its* recording at the new
        # epoch) and resyncs replica 0, which re-records on the follow-up
        # query.  After the second update every replica replays a stale
        # snapshot, so the query can only fail with the typed error.
        system.query(PROBE)
        system.update_value(PROBE, "987654")
        system.query(PROBE)
        system.query(PROBE)
        system.update_value(PROBE, "111222")
        with pytest.raises(QueryFailedError) as exc:
            system.query(PROBE)
        assert "last fault rollback" in str(exc.value)

    def test_stale_replica_does_not_block_naive_path(
        self, healthcare_doc, healthcare_scs
    ):
        """The naive (ship-everything) route also refuses stale state:
        it fails over off the pinned replica."""
        reference = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        system = self.host(
            healthcare_doc, healthcare_scs,
            [FaultPolicy(pin_stale=True), None],
        )
        assert (
            system.naive_query(PROBE).canonical()
            == reference.naive_query(PROBE).canonical()
        )
        system.update_value(PROBE, "987654")
        reference.update_value(PROBE, "987654")
        assert (
            system.naive_query(PROBE).canonical()
            == reference.naive_query(PROBE).canonical()
        )


# ----------------------------------------------------------------------
# Determinism of the extended fault schedule
# ----------------------------------------------------------------------
class TestRollbackDeterminism:
    def test_rollback_rate_validated(self):
        with pytest.raises(ValueError, match="rollback"):
            FaultRates(rollback=1.5)
        assert FaultRates(rollback=0.3).any

    def test_same_seed_same_rollback_schedule(self):
        def run(policy):
            channel = FaultyChannel(policy=policy)
            channel.transfer("client->server", "q", b"request")
            for size in (100, 90, 80, 70):
                channel.transfer("server->client", "a", bytes(size))
            return policy.schedule_signature()

        first = run(FaultPolicy(
            seed=5, server_to_client=FaultRates(rollback=0.5)
        ))
        second = run(FaultPolicy(
            seed=5, server_to_client=FaultRates(rollback=0.5)
        ))
        assert first == second
        assert any(kind == "rollback" for _, _, kind, _ in first)

    def test_zero_rollback_rate_consumes_no_randomness(self):
        """Pre-rollback seeded schedules must stay byte-identical: the
        rollback draw is guarded on a nonzero rate."""
        def run(rates):
            policy = FaultPolicy(seed=11, server_to_client=rates)
            channel = FaultyChannel(policy=policy)
            for size in (100, 200, 300):
                try:
                    channel.transfer("server->client", "a", bytes(size))
                except Exception:
                    pass
            return policy.schedule_signature()

        legacy = run(FaultRates(drop=0.4, corrupt=0.4))
        extended = run(FaultRates(drop=0.4, corrupt=0.4, rollback=0.0))
        assert legacy == extended

    def test_resync_clears_recorded_snapshots(self):
        policy = FaultPolicy(seed=0, pin_stale=True)
        channel = FaultyChannel(policy=policy)
        channel.transfer("client->server", "q", b"request")
        channel.transfer("server->client", "a", b"old response")
        channel.transfer("client->server", "q", b"request")
        delivered, _ = channel.transfer("server->client", "a", b"new response")
        assert delivered == b"old response"  # pinned
        channel.resync()
        channel.transfer("client->server", "q", b"request")
        delivered, _ = channel.transfer("server->client", "a", b"new response")
        assert delivered == b"new response"  # caught up
