"""Regression tests for epoch-based cache invalidation.

Every incremental update (insert/delete/update-value) bumps the hosted
database's scheme epoch, and every cache in the hot path — the client's
translated-plan, decrypted-block and fragment-tree caches, the server's
fragment cache, the structural index's sorted interval arrays — is keyed
or gated on that epoch.  A repeated query after an update must therefore
be answered fresh and exactly, never from stale cached state.
"""

import pytest

from repro.core.client import canonical_node
from repro.core.leakage import LeakagePolicy
from repro.core.system import SecureXMLSystem
from repro.perf import counters
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
        """Flush-coverage audit over every cache attribute that exists.

        Walks ``vars()`` rather than naming the caches, so a cache added
        later without a line in ``flush_caches()`` fails here.
        """
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs,
            leakage=LeakagePolicy(pad_to=8, decoys=8),
        )
        system.query(self.QUERY)

        def dict_caches(owner):
            return {
                name: value
                for name, value in vars(owner).items()
                if name.endswith("_cache") and isinstance(value, dict)
            }

        warm = {
            name
            for owner in (system.client, system.server)
            for name, value in dict_caches(owner).items()
            if value
        }
        assert warm >= {
            "_block_cache", "_tree_cache", "_request_cache",
            "_response_cache", "_fragment_cache", "_wire_cache",
        }
        assert system.server._universe_cache is not None

        system.flush_caches()
        for owner in (system.client, system.server):
            for name, value in dict_caches(owner).items():
                assert value == {}, (type(owner).__name__, name)
        assert len(system.client._plan_cache) == 0
        assert system.client._verified_payloads == {}
        assert system.server._universe_cache is None
