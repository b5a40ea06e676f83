"""Regression tests for epoch-based cache invalidation.

Every incremental update (insert/delete/update-value) bumps the hosted
database's scheme epoch, and every cache in the hot path — the client's
translated-plan, decrypted-block and fragment-tree caches, the server's
fragment cache, the structural index's sorted interval arrays — is keyed
or gated on that epoch.  A repeated query after an update must therefore
be answered fresh and exactly, never from stale cached state.
"""

import sys
import threading

import pytest

from updates_oracle import write_plaintext
from repro.core.client import Client, canonical_node
from repro.core.epoch_cache import EpochCache
from repro.core.integrity import RollbackDetectedError, TamperedResponseError
from repro.core.server import Fragment, ServerResponse
from repro.core.storage import load_system, save_system
from repro.core.structural_join import match_pattern
from repro.core.system import (
    QueryFailedError,
    SecureXMLSystem,
    _DEFAULT_MASTER_KEY,
)
from repro.netsim.message import encode_response
from repro.obs import MetricsRegistry
from repro.serving import ServingServer, remote_system
from repro.xpath.evaluator import evaluate

#: Reads of the process counter total.
metrics = MetricsRegistry()


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
        before = metrics.counter_values()["epoch_invalidations"]
        system.insert_element("//patient[pname='Matt']", "phone", "555-0000")
        assert metrics.counter_values()["epoch_invalidations"] > before


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
        before = metrics.counter_values()
        system.query(query)  # epoch changed: must re-translate
        system.query(query)  # and the new plan is cached again
        delta = metrics.counters_delta(before)
        assert delta["plan_cache_misses"] == 1
        assert delta["plan_cache_hits"] == 1

    def test_client_caches_flushed_on_epoch_change(self, system):
        """Decrypted-tree/block caches never serve a pre-update payload —
        and a write costs them nothing but the block it rewrote."""
        query = "//patient"
        assert "leukemia" in "".join(system.query(query).canonical())
        system.query(query)
        system.update_value(
            "//patient[pname='Matt']/treat/disease", "updated-disease"
        )
        before = metrics.counter_values()
        answer = system.query(query)
        delta = metrics.counters_delta(before)
        text = "".join(answer.canonical())
        assert "updated-disease" in text and "leukemia" not in text
        # Matt's fragment holds the rewritten block, Betty's does not ...
        assert delta["fragment_cache_hits"] == delta["fragment_cache_misses"] == 1
        assert (delta["tree_cache_hits"], delta["tree_cache_misses"]) == (1, 1)
        # ... and of Matt's three blocks only the rewritten one misses.
        assert (delta["block_cache_hits"], delta["block_cache_misses"]) == (2, 1)
        assert system.query("//patient[pname='Matt']//disease").values() == [
            "updated-disease"
        ]

    def test_repeated_batch_across_update(self, system):
        """execute_many answers reflect the update on the very next batch."""
        queries = ["//patient/pname", "//patient[pname='Matt']/phone"]
        first = system.execute_many(queries)
        assert first[1].values() == []
        system.insert_element("//patient[pname='Matt']", "phone", "555-4321")
        second = system.execute_many(queries)
        assert second[1].values() == ["555-4321"]
        assert first[0].canonical() == second[0].canonical()


class TestSortedIntervalArrays:
    """``StructuralIndex.sorted_lows`` arrays go by tag: a write drops the
    ones whose entry list it edited, a value update drops none.

    Counted around the join itself: a read after a write that edited no
    key it reads keeps its last join and probes no array."""

    JOIN = "//patient[.//disease]/pname"  # probes the ``disease`` array

    def misses(self, system):
        before = metrics.counter_values()
        match_pattern(
            system.client.translate(self.JOIN),
            system.hosted.structural_index,
            system.hosted.value_index,
        )
        delta = metrics.counters_delta(before)
        assert len(system.query(self.JOIN)) == 2
        assert delta["interval_cache_misses"] + delta["interval_cache_hits"] > 0
        return delta["interval_cache_misses"]

    def test_a_value_update_drops_none(self, system):
        assert self.misses(system) == 1
        system.update_value("//patient[pname='Matt']/treat/disease", "measles")
        system.update_value("//patient[pname='Matt']/pname", "Matthew")
        assert self.misses(system) == 0

    def test_an_insert_or_delete_drops_the_tags_it_edited(self, system):
        self.misses(system)
        system.insert_element("//patient[pname='Matt']", "phone", "555")
        assert self.misses(system) == 0  # ``phone`` is nobody's join input
        system.delete_element("//patient[pname='Betty']/treat[doctor='Smith']")
        assert self.misses(system) == 1  # a ``disease`` entry went with it
        system.insert_element("//patient[pname='Matt']/treat", "disease", "flu")
        assert self.misses(system) == 1


class TestTheSweepKeepsWhatTheBlockRuleKeeps:
    """At an epoch move the client finds the ids stamped since once, then
    tests each tree-cache and answer-memo entry by set operations.  The
    entries that survive are the ones the per-block rule keeps: every
    block the entry names still has a tag and no stamp after the sweep's
    epoch."""

    QUERIES = ("//patient", "//treat", "//patient/SSN", "//insurance", "//SSN")
    WRITES = {
        "one block stamped": (
            "update_value", "//patient[pname='Matt']/treat/disease", "measles"
        ),
        "one block deleted": ("delete_element", "//patient[pname='Matt']/SSN"),
    }

    @staticmethod
    def kept_by_rule(entries, hosted, since):
        return {
            key
            for key, entry in entries.items()
            if all(
                block_id in hosted.block_tags
                and hosted.block_stamps.get(block_id, 0) <= since
                for block_id in entry[1]
            )
        }

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_a_write_to_one_block(self, system, write):
        method, *arguments = self.WRITES[write]
        for _ in range(3):  # first, second and third sights
            for query in self.QUERIES:
                system.query(query)
        client, hosted = system.client, system.hosted
        since = hosted.epoch
        before = {
            "tree": dict(client._tree_cache.live()),
            "memo": dict(client._answer_memo.live()),
        }
        blocks = set(hosted.block_tags)
        getattr(system, method)(*arguments)
        written = {b for b, stamp in hosted.block_stamps.items() if stamp > since}
        assert len(written | (blocks - set(hosted.block_tags))) == 1
        after = {
            "tree": client._tree_cache.live(),
            "memo": client._answer_memo.live(),
        }
        for name, entries in before.items():
            kept = self.kept_by_rule(entries, hosted, since)
            assert set(after[name]) == kept, name
            assert kept and kept != set(entries), name


class TestEntriesThatOutliveAnEpoch:
    """Integrity is not freshness: an entry crosses a commit only on the
    owner's own record that its block was not rewritten, so nothing a
    hostile server replays after the write reaches a cached plaintext."""

    QUERY = "//patient"
    WRITE = ("//patient[pname='Matt']/treat/disease", "measles")

    @staticmethod
    def staged(client, system, query=QUERY):
        request = client.seal_request(client.translate(query), cache_key=query)
        response = client.open_response(system.server.answer_wire(request))
        return client.decrypt_fragments(response)

    @staticmethod
    def sealed_now(system, response):
        """What a server holding the session keys can always do: seal any
        fragments it likes under the live anchor."""
        _, response_key = system.keyring.session_keys()
        return system.hosted.seal(response_key, encode_response(response))[0]

    @staticmethod
    def text_of(decrypted):
        return "".join(canonical_node(tree) for _, tree in decrypted)

    @pytest.fixture
    def warm(self, system):
        """A warm client, the pre-write response and its sealed bytes."""
        client = system.client
        plan = client.translate(self.QUERY)
        request = client.seal_request(plan, cache_key=self.QUERY)
        old_blob = system.server.answer_wire(request)
        old = client.open_response(old_blob)
        assert "leukemia" in self.text_of(client.decrypt_fragments(old))
        assert len(client._tree_cache) == 2 and len(client._block_cache) == 7
        return client, old, old_blob

    def rewritten_block(self, system):
        (block_id,) = system.hosted.block_stamps
        return block_id

    def test_a_replayed_pre_write_fragment_is_refused(self, system, warm):
        client, old, _ = warm
        system.update_value(*self.WRITE)
        replay = client.open_response(self.sealed_now(system, old))
        with pytest.raises(TamperedResponseError):
            client.decrypt_fragments(replay)
        # The fragment without the rewritten block is still the truth, and
        # still cached; the honest answer is the updated one.
        before = metrics.counter_values()
        text = self.text_of(self.staged(client, system))
        assert "measles" in text and "leukemia" not in text
        delta = metrics.counters_delta(before)
        assert (delta["tree_cache_hits"], delta["block_cache_misses"]) == (1, 1)

    def test_the_current_text_with_the_old_payload_is_refused(
        self, system, warm
    ):
        client, _, _ = warm
        stale_payload = dict(system.hosted.blocks)
        system.update_value(*self.WRITE)
        block_id = self.rewritten_block(system)
        current = system.server.answer(client.translate(self.QUERY))
        forged = ServerResponse(fragments=[
            Fragment(fragment.ancestor_path, fragment.xml.replace(
                system.hosted.blocks[block_id].hex(),
                stale_payload[block_id].hex(),
            ))
            for fragment in current.fragments
        ])
        assert forged != current
        with pytest.raises(TamperedResponseError):
            client.decrypt_fragments(
                client.open_response(self.sealed_now(system, forged))
            )

    def test_a_replayed_text_holding_a_deleted_block_is_refused(
        self, system, warm
    ):
        client, old, _ = warm
        system.delete_element("//patient[pname='Matt']/treat/disease")
        assert len(system.hosted.block_tags) == 6
        assert len(client._block_cache.live()) == 6
        with pytest.raises(TamperedResponseError):
            client.decrypt_fragments(
                client.open_response(self.sealed_now(system, old))
            )
        assert "leukemia" not in self.text_of(self.staged(client, system))

    def test_an_answer_under_the_old_seal_is_a_rollback(self, system, warm):
        client, _, old_blob = warm
        assert client.open_response(old_blob)  # this epoch: the cached one
        system.update_value(*self.WRITE)
        with pytest.raises(RollbackDetectedError):
            client.open_response(old_blob)

    def test_a_handle_that_did_not_write_drops_the_same_entries(self, system):
        writer, reader = system.client, Client(system.keyring, system.hosted)
        old = reader.open_response(system.server.answer_wire(
            reader.seal_request(reader.translate(self.QUERY))
        ))
        for client in (writer, reader):
            self.staged(client, system)
        system.update_value(*self.WRITE)
        block_id = self.rewritten_block(system)
        for client in (writer, reader):
            assert set(client._block_cache.live()) == (
                set(system.hosted.blocks) - {block_id}
            )
            assert {
                held_id: payload
                for held_id, (payload, _) in client._block_cache.live().items()
            } == {
                held_id: payload
                for held_id, payload in system.hosted.blocks.items()
                if held_id != block_id
            }
            assert len(client._tree_cache.live()) == 1
        with pytest.raises(TamperedResponseError):
            reader.decrypt_fragments(
                reader.open_response(self.sealed_now(system, old))
            )
        assert "measles" in self.text_of(self.staged(reader, system))

    def test_a_remote_handle_that_did_not_write_drops_them_too(self, system):
        server = ServingServer(max_inflight=4)
        server.register_tenant("t0", system)
        address = server.start()
        writer = remote_system(system, address, "t0")
        reader = remote_system(system, address, "t0")
        try:
            for handle in (writer, reader):
                assert "leukemia" in "".join(handle.query(self.QUERY).canonical())
            writer.update_value(*self.WRITE)
            block_id = self.rewritten_block(system)
            assert block_id not in reader.client._block_cache.live()
            assert len(reader.client._block_cache) == 6
            before = metrics.counter_values()
            text = "".join(reader.query(self.QUERY).canonical())
            assert "measles" in text and "leukemia" not in text
            assert metrics.counters_delta(before)["block_cache_misses"] == 1
        finally:
            writer.close()
            reader.close()
            server.stop()

    def test_readers_racing_a_writer_never_read_behind_an_acknowledged_write(
        self, system
    ):
        """Three remote readers sweep their caches while another
        connection rewrites one block over and over: an answer is never
        older than the last write acknowledged before the read began."""
        server = ServingServer(max_inflight=16)
        server.register_tenant("t0", system)
        address = server.start()
        handles = [remote_system(system, address, "t0") for _ in range(4)]
        writer, readers = handles[0], handles[1:]
        values = ["leukemia"] + [f"d{n}" for n in range(12)]
        acknowledged = [0]
        seen, errors = [], []

        def write():
            for n, value in enumerate(values[1:], start=1):
                writer.update_value(
                    "//patient[pname='Matt']/treat/disease", value
                )
                acknowledged[0] = n

        def version_read(handle):
            text = "".join(handle.query(self.QUERY).canonical())
            (found,) = [n for n, v in enumerate(values) if f">{v}<" in text]
            return found

        def read(handle):
            try:
                while acknowledged[0] < len(values) - 1:
                    floor = acknowledged[0]
                    try:
                        seen.append((floor, version_read(handle)))
                    except QueryFailedError:
                        continue  # typed: every retry lost a race to the writer
                # The writer is done: nothing left to lose a race to.
                seen.append((len(values) - 1, version_read(handle)))
            except Exception as exc:  # surfaced below, on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(h,)) for h in readers]
        threads.append(threading.Thread(target=write))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            for handle in handles:
                handle.close()
            server.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert acknowledged[0] == len(values) - 1 and seen
        assert all(found >= floor for floor, found in seen), seen

    def test_a_tagless_hosting_keeps_nothing(self, system, warm):
        """No tag, no record of what the owner wrote: nothing to go by."""
        client, _, _ = warm
        system.hosted.block_tags.clear()
        system.hosted.bump_epoch()
        assert len(client._block_cache.live()) == 0
        assert len(client._tree_cache.live()) == 0

    def test_a_reloaded_handle_starts_empty(self, system, warm, tmp_path):
        system.update_value(*self.WRITE)
        save_system(system, str(tmp_path / "hosting"))
        reloaded = load_system(str(tmp_path / "hosting"), _DEFAULT_MASTER_KEY)
        for owner in (reloaded.client, reloaded.server):
            assert all(len(cache) == 0 for cache in owner._caches)
        assert reloaded.hosted.subtree_stamps == {}
        text = "".join(reloaded.query(self.QUERY).canonical())
        assert "measles" in text and "leukemia" not in text

    def test_the_server_keeps_the_fragments_the_write_cannot_reach(
        self, system, warm
    ):
        server = system.server
        before = dict(server._fragment_cache.live())
        system.update_value(*self.WRITE)
        kept = server._fragment_cache.live()
        assert kept and kept.items() < before.items()
        for node_id, fragment in kept.items():
            node = next(
                n for n in system.hosted.hosted_root.iter()
                if n.node_id == node_id
            )
            assert fragment == server._build_fragment(node)


class TestSubtreeStampsAreBoundedByTheTree:
    """A removed node never ships again, so its subtree stamp goes once
    the server's fragment cache has swept past it — with any fragment
    rooted there."""

    def test_2000_insert_delete_pairs_leave_only_live_stamps(self, system):
        hosted, server = system.hosted, system.server
        patient = "//patient[pname='Betty']"
        for n in range(2000):
            system.insert_element(patient, "note", f"n{n}")
            # Ships the new node, so the server caches its fragment.
            assert system.query("//patient/note").values() == [f"n{n}"]
            system.delete_element(f"{patient}/note")
            assert system.query("//patient/note").values() == []
        live = {node.node_id for node in hosted.hosted_root.iter()}
        assert len(live) == 27
        assert set(hosted.subtree_stamps) <= live
        assert set(server._fragment_cache.live()) <= live
        assert hosted.removed_ids == []

    def test_a_write_only_stretch_keeps_them_until_the_next_sweep(
        self, system
    ):
        """The stamps of nodes removed since the server last evaluated
        a query are what that query's sweep still needs."""
        hosted = system.hosted
        for n in range(5):
            system.insert_element("//patient[pname='Matt']", "note", f"n{n}")
            system.delete_element("//patient[pname='Matt']/note")
        assert len(hosted.removed_ids) == 5 * 2  # each element and its text
        system.query("//patient/note")
        live = {node.node_id for node in hosted.hosted_root.iter()}
        assert hosted.removed_ids == []
        assert set(hosted.subtree_stamps) <= live


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

    def test_a_cache_of_pairs_holds_bound_pairs(self):
        cache, _ = self.make(bounded=2)
        for key in range(EpochCache.BOUND + 3):
            cache.store(key, key, 0)
            cache.store((key,), key, 0)
        assert len(cache) == 2 * EpochCache.BOUND
        assert next(iter(cache.live())) == 3

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
        before = metrics.counter_values()
        client.translate(queries[-1])
        client.translate(queries[1])
        assert metrics.counters_delta(before)["plan_cache_hits"] == 2
        client.translate(queries[0])  # the one that made room
        delta = metrics.counters_delta(before)
        assert delta["plan_cache_misses"] == 1
        assert len(client._plan_cache) == EpochCache.BOUND

    def test_300_distinct_queries_in_one_epoch(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        epoch = system.hosted.epoch
        for n in range(300):
            query = f"//patient[age>{n % 50}][age<{100 + n}]/pname"
            expected = sorted(
                canonical_node(node) for node in evaluate(healthcare_doc, query)
            )
            assert system.query(query).canonical() == expected, query
        assert system.hosted.epoch == epoch
        # Keyed by one of the 300 strings, or by its sealed request (with
        # the record of what was sent for its payload beside it): full.
        assert len(system.client._plan_cache) == EpochCache.BOUND
        assert len(system.server._wire_cache) == 2 * EpochCache.BOUND
        # Each kept plan holds the request it sealed to, and nothing else
        # does.
        plans = system.client._plan_cache.live().values()
        wire = system.server._wire_cache.live()
        blobs = [key for key in wire if key.__class__ is bytes]
        assert len(blobs) == EpochCache.BOUND
        assert all(plan.sealed in wire for plan in plans)
        # Keyed by the sealed response, and many of the 300 share one.
        opened = system.client._response_cache.live()
        assert 0 < sum(key.__class__ is bytes for key in opened)
        assert len(opened) <= 2 * EpochCache.BOUND

    def test_200_distinct_queries_stay_warm_through_one_epoch(
        self, healthcare_doc, healthcare_scs, monkeypatch
    ):
        """Each miss stores a sealed blob and a record: the bound counts
        the pairs, so a second pass over 200 queries unseals nothing."""
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        queries = [
            f"//patient[age>{n % 50}][age<{100 + n}]/pname" for n in range(200)
        ]
        first = [system.query(query).canonical() for query in queries]
        calls = []
        answer, unseal = system.server.answer, system.hosted.unseal
        monkeypatch.setattr(
            system.server, "answer", lambda q: calls.append(q) or answer(q)
        )
        monkeypatch.setattr(
            system.hosted,
            "unseal",
            lambda *a, **k: calls.append(a) or unseal(*a, **k),
        )
        epoch = system.hosted.epoch
        assert [system.query(query).canonical() for query in queries] == first
        assert system.hosted.epoch == epoch
        assert calls == []


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

    def test_the_keyring_does_not_grow_with_writes(self, system):
        """Each write re-encrypts under a fresh stamp; a long-lived
        writer's keyring keeps nothing per ``(block, stamp)``."""
        xpath = "//patient[pname='Matt']/treat/disease"
        system.update_value(xpath, "measles")  # builds the lazy ciphers

        def footprint():
            return {
                name: len(value) if isinstance(value, dict) else value
                for name, value in vars(system.keyring).items()
            }

        before = footprint()
        for index in range(300):
            system.update_value(xpath, ("leukemia", "measles")[index % 2])
        assert footprint() == before


class TestFlushCaches:
    """``flush_caches()`` leaves a truly cold system behind."""

    QUERY = "//patient[.//insurance//@coverage>=10000]//SSN"

    def test_flush_leaves_no_cache_behind(
        self, healthcare_doc, healthcare_scs
    ):
        """Flush-coverage audit over every cache that exists.

        Walks ``vars()`` rather than naming the caches: every
        :class:`EpochCache` an owner holds must be in the registry its
        ``flush_caches()`` loops over, and a dict called ``*_cache`` kept
        beside the type fails here.  The leakage tier is on, so the
        server's decoy-universe cache is warm too.
        """
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, leakage=True
        )
        system.query(self.QUERY)
        owners = [system.client, system.server]

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

        warm = [
            (type(owner).__name__, name)
            for owner in owners
            for name, cache in caches(owner).items()
            if len(cache)
        ]
        assert sorted(warm) == sorted([
            ("Client", "_plan_cache"), ("Client", "_response_cache"),
            ("Client", "_block_cache"), ("Client", "_tree_cache"),
            ("Client", "_answer_memo"),
            ("Server", "_fragment_cache"), ("Server", "_wire_cache"),
            ("Server", "_universe_cache"),
        ])
        assert [len(owner._caches) for owner in owners] == [5, 3]

        # One read so far: what the tree cache holds is the plaintext of
        # fragments seen once, not trees — counted warm all the same, and
        # flushed like a tree.
        sighted = system.client._tree_cache.live().values()
        assert {type(entry[0]) for entry in sighted} == {str}
        # Likewise the answer memo: the pair's first sight, no copies.
        assert all(
            entry[0].__class__ is not tuple
            for entry in system.client._answer_memo.live().values()
        )

        system.flush_caches()
        for owner in owners:
            for name, cache in caches(owner).items():
                assert len(cache) == 0, (type(owner).__name__, name)
