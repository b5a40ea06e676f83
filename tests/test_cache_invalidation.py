"""Regression tests for epoch-based cache invalidation.

Every incremental update (insert/delete/update-value) bumps the hosted
database's scheme epoch, and every cache in the hot path — the client's
translated-plan, decrypted-block and fragment-tree caches, the server's
fragment cache, the structural index's sorted interval arrays — is keyed
or gated on that epoch.  A repeated query after an update must therefore
be answered fresh and exactly, never from stale cached state.
"""

import pytest

from updates_oracle import write_plaintext
from repro.core.client import Client, canonical_node
from repro.core.epoch_cache import EpochCache
from repro.core.leakage import LeakagePolicy
from repro.core.system import SecureXMLSystem
from repro.perf import counters
from repro.serving.gateway import ClusterGateway
from repro.xpath.evaluator import evaluate


@pytest.fixture
def system(healthcare_doc, healthcare_scs):
    return SecureXMLSystem.host(healthcare_doc, healthcare_scs, scheme="opt")


class TestEpochBumping:
    def test_insert_bumps_epoch(self, system):
        before = system.hosted.epoch
        system.insert_element("//patient[pname='Matt']", "phone", "555-1234")
        assert system.hosted.epoch == before + 1

    def test_delete_bumps_epoch(self, system):
        before = system.hosted.epoch
        system.delete_element("//patient[pname='Matt']/treat")
        assert system.hosted.epoch > before

    def test_update_value_bumps_epoch(self, system):
        before = system.hosted.epoch
        system.update_value("//patient[pname='Matt']/pname", "Matthew")
        assert system.hosted.epoch > before

    def test_epoch_invalidation_counter(self, system):
        before = counters.epoch_invalidations
        system.insert_element("//patient[pname='Matt']", "phone", "555-0000")
        assert counters.epoch_invalidations > before


class TestInvalidationCorrectness:
    def test_insert_visible_after_cached_query(self, system):
        query = "//patient[pname='Matt']/phone"
        assert system.query(query).values() == []
        # Warm every cache layer on the miss-shaped answer.
        assert system.query(query).values() == []
        system.insert_element("//patient[pname='Matt']", "phone", "555-1234")
        assert system.query(query).values() == ["555-1234"]

    def test_delete_visible_after_cached_query(self, system):
        query = "//patient[pname='Matt']//disease"
        first = system.query(query)
        assert len(first) > 0
        assert system.query(query).canonical() == first.canonical()
        system.delete_element("//patient[pname='Matt']/treat")
        assert system.query(query).values() == []

    def test_update_value_visible_after_cached_query(self, system):
        query = "//patient[pname='Matt']/pname"
        assert system.query(query).values() == ["Matt"]
        system.update_value("//patient[pname='Matt']/pname", "Matthew")
        # A stale cache would still answer ["Matt"]; fresh state has no
        # pname='Matt' left and the new value shows under its new name.
        assert system.query(query).values() == []
        assert system.query("//patient[pname='Matthew']/pname").values() == [
            "Matthew"
        ]

    def test_plan_cache_refilled_after_update(self, system):
        """The old plan is unusable (epoch key) and a fresh one is cached."""
        query = "//patient/pname"
        system.query(query)
        system.query(query)
        system.insert_element("//patient[pname='Matt']", "phone", "555-9999")
        before = counters.snapshot()
        system.query(query)  # epoch changed: must re-translate
        system.query(query)  # and the new plan is cached again
        delta = counters.delta_since(before)
        assert delta["plan_cache_misses"] == 1
        assert delta["plan_cache_hits"] == 1

    def test_client_caches_flushed_on_epoch_change(self, system):
        """Decrypted-tree/block caches never serve pre-update payloads."""
        query = "//patient[pname='Matt']//disease"
        baseline = system.query(query).values()
        assert baseline  # covered field: answered via encrypted blocks
        system.query(query)
        system.update_value(
            "//patient[pname='Matt']/treat/disease", "updated-disease"
        )
        before = counters.snapshot()
        answer = system.query(query)
        delta = counters.delta_since(before)
        assert answer.values() == ["updated-disease"]
        assert delta["tree_cache_hits"] == 0
        assert delta["block_cache_hits"] == 0

    def test_repeated_batch_across_update(self, system):
        """execute_many answers reflect the update on the very next batch."""
        queries = ["//patient/pname", "//patient[pname='Matt']/phone"]
        first = system.execute_many(queries)
        assert first[1].values() == []
        system.insert_element("//patient[pname='Matt']", "phone", "555-4321")
        second = system.execute_many(queries)
        assert second[1].values() == ["555-4321"]
        assert first[0].canonical() == second[0].canonical()


class TestEpochCache:
    """The type itself: one gate, stores that name their epoch, a bound."""

    def make(self, bounded=False):
        state = {"epoch": 0}
        registry = []
        cache = EpochCache(lambda: state["epoch"], registry, bounded=bounded)
        assert registry == [cache]
        return cache, state

    def test_an_epoch_move_empties_it_at_the_next_gate(self):
        cache, state = self.make()
        cache.live()["k"] = "v"
        assert cache.live() == {"k": "v"}
        state["epoch"] = 1
        assert cache.live() == {}

    def test_a_stage_that_took_its_entries_keeps_them(self):
        """...and what it writes late never reaches the new epoch."""
        cache, state = self.make()
        held = cache.live()
        held["k"] = "v"
        state["epoch"] = 1
        assert cache.live() == {}
        held["late"] = "computed under epoch 0"
        assert held["k"] == "v" and cache.live() == {}

    def test_a_store_names_its_epoch_and_a_stale_one_is_dropped(self):
        cache, state = self.make()
        state["epoch"] = 1
        cache.store("stale", "sealed before the commit", 0)
        cache.store("fresh", "sealed after it", 1)
        assert cache.live() == {"fresh": "sealed after it"}

    def test_a_bounded_cache_evicts_its_oldest_entry(self):
        cache, _ = self.make(bounded=True)
        for key in range(EpochCache.BOUND + 3):
            cache.store(key, key, 0)
        assert list(cache.live()) == list(range(3, EpochCache.BOUND + 3))
        cache.store(5, "again", 0)  # already held: nobody leaves
        assert len(cache) == EpochCache.BOUND and 3 in cache.live()

    def test_an_unbounded_cache_is_bounded_by_what_it_is_keyed_by(self):
        cache, _ = self.make()
        for key in range(EpochCache.BOUND + 3):
            cache.store(key, key, 0)
        assert len(cache) == EpochCache.BOUND + 3


class TestBoundedByTheTypeNotByThePeer:
    """Caches whose keys a peer picks — query strings, sealed blobs."""

    def test_the_plan_cache_evicts_its_oldest_plan(self, system):
        client = system.client
        queries = [f"//patient[age>{n}]/pname" for n in range(EpochCache.BOUND + 1)]
        for query in queries:
            client.translate(query)
        assert len(client._plan_cache) == EpochCache.BOUND
        before = counters.snapshot()
        client.translate(queries[-1])
        client.translate(queries[1])
        assert counters.delta_since(before)["plan_cache_hits"] == 2
        client.translate(queries[0])  # the one that made room
        delta = counters.delta_since(before)
        assert delta["plan_cache_misses"] == 1
        assert len(client._plan_cache) == EpochCache.BOUND

    def test_300_distinct_queries_in_one_epoch(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, cluster=False
        )
        clustered = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, cluster=2
        )
        gateway = ClusterGateway(clustered)
        epoch = system.hosted.epoch
        for n in range(300):
            query = f"//patient[age>{n % 50}][age<{100 + n}]/pname"
            expected = sorted(
                canonical_node(node) for node in evaluate(healthcare_doc, query)
            )
            assert system.query(query).canonical() == expected, query
            sealer = clustered.client
            sealed = gateway.answer_wire(
                sealer.seal_request(sealer.translate(query), cache_key=query)
            )
            answer = sealer.post_process(query, sealer.assemble(
                sealer.decrypt_fragments(sealer.open_response(sealed))
            ))
            assert answer.canonical() == expected, query
        assert system.hosted.epoch == epoch
        # Keyed by one of the 300 strings, or by its sealed request: full.
        for cache in (
            system.client._plan_cache, system.client._request_cache,
            system.server._wire_cache, gateway._wire_cache,
            *(
                replica.server._wire_cache
                for replica_set in clustered.coordinator.replica_sets
                for replica in replica_set.replicas
            ),
        ):
            assert len(cache) == EpochCache.BOUND
        # Keyed by the sealed response, and many of the 300 share one.
        for client in (system.client, clustered.client):
            assert 0 < len(client._response_cache) <= EpochCache.BOUND


class TestClientOutlivesWrites:
    """A bare ``Client`` kept for a whole mixed run (the load generator's
    sealer) translates with the plans the last write left, not with the
    ones it was built beside."""

    @pytest.mark.parametrize(
        "write,query",
        [
            (
                ("update_value", "//patient[pname='Matt']/treat/disease", "measles"),
                "//patient[.//disease='measles']/SSN",
            ),
            (
                ("insert_element", "//patient[pname='Matt']", "SSN", "999"),
                "//patient[SSN='999']/pname",
            ),
            (
                ("insert_element", "//patient[pname='Matt']", "phone", "555"),
                "//patient[phone='555']/pname",
            ),
        ],
        ids=["update", "insert-sensitive", "insert-new-tag"],
    )
    def test_translates_seals_verifies_and_post_processes_to_the_oracle(
        self, system, healthcare_doc, write, query
    ):
        sealer = Client(system.keyring, system.hosted)

        def staged():
            request = sealer.seal_request(sealer.translate(query), cache_key=query)
            response = sealer.open_response(system.server.answer_wire(request))
            pruned = sealer.assemble(sealer.decrypt_fragments(response))
            return sealer.post_process(query, pruned).canonical()

        assert staged() == staged() == []  # warm on the old state
        method, *args = write
        getattr(system, method)(*args)
        write_plaintext(healthcare_doc, method, *args)
        expected = sorted(
            canonical_node(node) for node in evaluate(healthcare_doc, query)
        )
        assert expected and staged() == expected

    def test_a_commit_between_verify_and_decrypt_leaves_nothing_stale(
        self, system, monkeypatch
    ):
        """Another connection's write lands after this client verified a
        response's tags and before it decrypts: what it then decrypts
        belongs to the old epoch and must not be cached under the new."""
        sealer = Client(system.keyring, system.hosted)
        query = "//patient"
        stale = system.server.answer(sealer.translate(query))
        real, calls = system.keyring.block_tag, []

        def block_tag(block_id, payload):
            tag = real(block_id, payload)
            calls.append(block_id)
            if len(calls) == stale.blocks_shipped:  # every tag has verified
                system.update_value(
                    "//patient[pname='Matt']/treat/disease", "measles"
                )
            return tag

        monkeypatch.setattr(system.keyring, "block_tag", block_tag)
        old = sealer.decrypt_fragments(stale)
        assert len(calls) > stale.blocks_shipped  # the commit happened in there
        assert any("leukemia" in canonical_node(tree) for _, tree in old)
        fresh = sealer.decrypt_fragments(
            system.server.answer(sealer.translate(query))
        )
        text = "".join(canonical_node(tree) for _, tree in fresh)
        assert "measles" in text and "leukemia" not in text

    def test_the_system_keeps_the_client_it_was_built_with(self, system):
        client = system.client
        system.insert_element("//patient[pname='Matt']", "phone", "555-1234")
        system.update_value("//patient[pname='Matt']/phone", "555-0000")
        system.delete_element("//patient[pname='Matt']/phone")
        assert system.client is client

    def test_an_epoch_move_keeps_the_iv_memo(self, system):
        """A function of key and block id: only ``flush_caches()``, the
        cold-measurement call, drops it."""
        query = "//patient[pname='Matt']//disease"
        system.query(query)
        ivs = dict(system.keyring._block_ivs)
        assert ivs
        system.update_value("//patient[pname='Betty']/age", "36")
        system.query(query)
        assert ivs.items() <= system.keyring._block_ivs.items()


class TestFlushCaches:
    """``flush_caches()`` leaves a truly cold system behind."""

    QUERY = "//patient[.//insurance//@coverage>=10000]//SSN"

    def test_flush_clears_keyring_iv_memo(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        system.query(self.QUERY)
        keyring = system.keyring
        assert keyring._block_ivs, "query should have derived block IVs"
        system.flush_caches()
        assert keyring._block_ivs == {}
        # And the flush is behavioural, not just structural: the next
        # query still answers correctly from a fully cold start.
        assert system.query(self.QUERY).canonical() == sorted(
            canonical_node(n) for n in evaluate(healthcare_doc, self.QUERY)
        )

    def test_flush_leaves_no_cache_behind(
        self, healthcare_doc, healthcare_scs
    ):
        """Flush-coverage audit over every cache that exists.

        Walks ``vars()`` rather than naming the caches: every
        :class:`EpochCache` an owner holds must be in the registry its
        ``flush_caches()`` loops over, and a dict called ``*_cache`` kept
        beside the type fails here.
        """
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs,
            leakage=LeakagePolicy(pad_to=8, decoys=8),
            cluster=False,
        )
        clustered = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, cluster=2,
            leakage=LeakagePolicy(pad_to=8, decoys=8),
        )
        gateway = ClusterGateway(clustered)
        request = clustered.client.seal_request(
            clustered.client.translate(self.QUERY), cache_key=self.QUERY
        )
        gateway.answer_wire(request)
        system.query(self.QUERY)
        clustered.query(self.QUERY)
        shards = [
            replica.server
            for replica_set in clustered.coordinator.replica_sets
            for replica in replica_set.replicas
        ]
        owners = [system.client, system.server, clustered.client, gateway, *shards]

        def caches(owner):
            held = {
                name: value
                for name, value in vars(owner).items()
                if isinstance(value, EpochCache)
            }
            assert list(held.values()) == owner._caches, type(owner).__name__
            for name, value in vars(owner).items():
                assert not (
                    name.endswith("_cache") and isinstance(value, dict)
                ), (type(owner).__name__, name)
            return held

        warm = {
            (type(owner).__name__, name)
            for owner in owners
            for name, cache in caches(owner).items()
            if len(cache)
        }
        assert warm == {
            ("Client", "_translator_cache"), ("Client", "_plan_cache"),
            ("Client", "_request_cache"), ("Client", "_response_cache"),
            ("Client", "_verified_payloads"), ("Client", "_block_cache"),
            ("Client", "_tree_cache"),
            ("Server", "_fragment_cache"), ("Server", "_wire_cache"),
            ("Server", "_universe_cache"),
            ("ShardServer", "_fragment_cache"), ("ShardServer", "_wire_cache"),
            ("ShardServer", "_universe_cache"), ("ShardServer", "_lows_cache"),
            ("ClusterGateway", "_wire_cache"),
        }

        system.flush_caches()
        clustered.flush_caches()
        gateway.flush_caches()
        for owner in owners:
            for name, cache in caches(owner).items():
                assert len(cache) == 0, (type(owner).__name__, name)
