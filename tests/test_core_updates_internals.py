"""Internals of the update engine: interval allocation and index surgery."""

import pytest

from repro.core.encryptor import host_database
from repro.core.scheme import build_scheme
from repro.core.storage import load_system, save_system
from repro.core.system import _DEFAULT_MASTER_KEY, SecureXMLSystem
from repro.core.updates import UpdateEngine, UpdateError
from repro.crypto.keyring import ClientKeyring


@pytest.fixture
def engine_and_hosted(healthcare_doc, healthcare_scs):
    keyring = ClientKeyring(b"u" * 16)
    scheme = build_scheme(healthcare_doc, healthcare_scs, "opt")
    hosted = host_database(healthcare_doc, scheme, keyring)
    return UpdateEngine(hosted, keyring), hosted


class TestIntervalAllocation:
    def test_new_interval_nested_in_parent(self, engine_and_hosted):
        engine, hosted = engine_and_hosted
        parent = hosted.structural_index.lookup("patient")[0]
        interval = engine._allocate_child_interval(parent)
        assert parent.interval.contains(interval)

    def test_new_interval_after_existing_children(self, engine_and_hosted):
        engine, hosted = engine_and_hosted
        parent = hosted.structural_index.lookup("patient")[0]
        interval = engine._allocate_child_interval(parent)
        for child in parent.children:
            assert child.interval.high < interval.low

    def test_repeated_allocations_stay_ordered(self, engine_and_hosted):
        engine, hosted = engine_and_hosted
        parent = hosted.structural_index.lookup("patient")[0]
        previous_high = None
        # Repeated insertion consumes the trailing gap geometrically; a
        # healthy number of inserts must fit before precision runs out.
        for index in range(25):
            engine.insert_element(parent, "note", f"n{index}")
            newest = hosted.structural_index.lookup("note")[-1]
            assert parent.interval.contains(newest.interval)
            if previous_high is not None:
                assert newest.interval.low > previous_high
            previous_high = newest.interval.high

    def test_two_inserts_under_one_parent_draw_different_weights(
        self, engine_and_hosted
    ):
        """§5.1's gap weights are known only to the client.  A stream
        reopened per insert put every inserted child at the same two
        fractions of its gap — the first two draws of the stream hosting
        used for the root — so each insert draws from its own stamp's."""
        engine, hosted = engine_and_hosted
        parent = hosted.structural_index.lookup("patient")[0]
        hosting_stream = engine._keyring.dsi_weight_stream()
        hosting_weights = (
            hosting_stream.uniform(0.05, 0.30),
            hosting_stream.uniform(0.35, 0.60),
        )
        weights = []
        for index in range(6):
            children = [c.interval.high for c in parent.children]
            gap_low = max(children)
            width = parent.interval.high - gap_low
            engine.insert_element(parent, "note", f"n{index}")
            interval = hosted.structural_index.lookup("note")[-1].interval
            weights.append(
                (
                    round((interval.low - gap_low) / width, 9),
                    round((interval.high - gap_low) / width, 9),
                )
            )
        assert len(set(weights)) == len(weights)
        assert len({w1 for w1, _ in weights}) == len(weights)
        for w1, w2 in weights:
            assert 0.05 <= w1 < 0.30 and 0.35 <= w2 < 0.60
            assert abs(w1 - hosting_weights[0]) > 1e-6

    def test_gap_exhaustion_raises_cleanly(self, engine_and_hosted):
        engine, hosted = engine_and_hosted
        parent = hosted.structural_index.lookup("patient")[0]
        with pytest.raises(UpdateError):
            for index in range(100_000):
                engine.insert_element(parent, "note", f"n{index}")
        # The failure is a refusal, not corruption: existing entries are
        # still well-formed and queryable.
        notes = hosted.structural_index.lookup("note")
        assert all(
            parent.interval.contains(entry.interval) for entry in notes
        )


class TestIndexSurgery:
    def test_added_entry_linked_to_parent(self, engine_and_hosted):
        engine, hosted = engine_and_hosted
        parent = hosted.structural_index.lookup("patient")[0]
        engine.insert_element(parent, "note", "x")
        entry = hosted.structural_index.lookup("note")[0]
        assert entry.parent is parent
        assert entry in parent.children

    def test_entries_stay_sorted_after_insert(self, engine_and_hosted):
        engine, hosted = engine_and_hosted
        parent = hosted.structural_index.lookup("patient")[1]
        engine.insert_element(parent, "note", "x")
        lows = [e.interval.low for e in hosted.structural_index.all_entries()]
        assert lows == sorted(lows)

    def test_delete_removes_descendant_entries(self, engine_and_hosted):
        engine, hosted = engine_and_hosted
        treat = hosted.structural_index.lookup("treat")[0]
        doctor_count = len(hosted.structural_index.lookup("doctor"))
        engine.delete_element(treat)
        assert len(hosted.structural_index.lookup("treat")) == 2
        assert len(hosted.structural_index.lookup("doctor")) == doctor_count - 1

    def test_delete_block_cleans_all_tables(self, engine_and_hosted):
        engine, hosted = engine_and_hosted
        token_entries = [
            e for e in hosted.structural_index.all_entries()
            if e.block_id is not None
        ]
        victim = token_entries[0].block_id
        engine._delete_block(victim)
        assert victim not in hosted.blocks
        assert victim not in hosted.placeholders
        assert victim not in hosted.structural_index.block_table
        assert all(
            e.block_id != victim
            for e in hosted.structural_index.all_entries()
        )

    def test_resolve_parent_by_element(self, engine_and_hosted):
        engine, hosted = engine_and_hosted
        entry = hosted.structural_index.lookup("patient")[0]
        resolved = engine._resolve_parent(entry.hosted_node)
        assert resolved is entry

    def test_resolve_parent_unknown_element(self, engine_and_hosted):
        from repro.xmldb.node import Element

        engine, _ = engine_and_hosted
        with pytest.raises(UpdateError):
            engine._resolve_parent(Element("stranger"))


class TestFieldRebuild:
    def test_rebuild_reflects_new_histogram(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        before = system.hosted.field_plans["disease"].ordered_values
        system.insert_element(
            "//patient[pname='Matt']/treat", "disease", "aaa-first"
        )
        after = system.hosted.field_plans["disease"].ordered_values
        assert "aaa-first" == after[0]  # categorical order re-derived
        assert len(after) == len(before) + 1

    def test_last_occurrence_removal_drops_plan(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        # Delete every insurance block: @coverage loses all occurrences.
        system.delete_element("//patient[pname='Betty']/insurance")
        system.delete_element("//patient[pname='Matt']/insurance")
        assert "@coverage" not in system.hosted.field_plans
        token = system.hosted.field_tokens.get("@coverage")
        if token is not None:
            assert system.hosted.value_index.tree_for(token) is None

class TestHostedIdAllocation:
    """Hosted node ids come from an O(1) high-water mark, not tree walks.

    Inserts used to recompute ``max(node_id)`` by walking the whole
    hosted tree on every allocation — quadratic over a batch of inserts.
    Hosting and loading both seed the mark from the renumbering that
    assigns the ids; every allocation after that advances it.
    """

    def test_fresh_and_loaded_hostings_carry_the_mark(
        self, healthcare_doc, healthcare_scs, tmp_path
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        save_system(system, str(tmp_path / "hosting"))
        loaded = load_system(str(tmp_path / "hosting"), _DEFAULT_MASTER_KEY)
        for owner in (system, loaded):
            hosted = owner.hosted
            mark = max(
                node.node_id
                for element in hosted.hosted_root.iter()
                for node in (element, *getattr(element, "attributes", ()))
            )
            assert hosted.max_hosted_id == mark
            engine = UpdateEngine(hosted, owner.keyring)
            parent = hosted.structural_index.lookup("patient")[0]
            for index in range(20):
                engine.insert_element(parent, "note", f"n{index}")
            notes = sorted(
                entry.hosted_node.node_id
                for entry in hosted.structural_index.lookup("note")
            )
            assert notes == list(range(mark + 1, mark + 21))
            assert hosted.max_hosted_id == mark + 20

    def test_allocated_ids_are_fresh_and_increasing(self, engine_and_hosted):
        engine, hosted = engine_and_hosted
        existing = {node.node_id for node in hosted.hosted_root.iter()}
        allocated = [hosted.allocate_hosted_id() for _ in range(10)]
        assert allocated == sorted(allocated)
        assert len(set(allocated)) == len(allocated)
        assert not (set(allocated) & existing)

    def test_delete_does_not_lower_the_mark(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        system.insert_element(
            "//patient[pname='Matt']/treat", "disease", "tempval"
        )
        mark = system.hosted.max_hosted_id
        system.delete_element("//disease[.='tempval']")
        assert system.hosted.max_hosted_id == mark
        assert system.hosted.allocate_hosted_id() == mark + 1
