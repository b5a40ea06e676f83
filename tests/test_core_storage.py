"""Tests for saving and loading hosted systems."""

import json
import os

import pytest

from repro.core.client import canonical_node
from repro.core.encryptor import renumbered_hosted_ids
from repro.core.storage import load_system, save_system
from repro.core.system import SecureXMLSystem
from repro.workloads.nasa import build_nasa_database
from repro.xmldb.node import Element, Text
from repro.xpath.evaluator import evaluate

MASTER = b"storage-test-master-key-32bytes!"

QUERIES = (
    "//patient[.//insurance//@coverage>=10000]//SSN",
    "//treat[disease='leukemia']/doctor",
    "//patient[age>36]/pname",
    "//insurance/policy#",
)


@pytest.fixture
def saved(tmp_path, healthcare_doc, healthcare_scs):
    system = SecureXMLSystem.host(
        healthcare_doc, healthcare_scs, scheme="opt", master_key=MASTER
    )
    directory = str(tmp_path / "hosting")
    save_system(system, directory)
    return system, directory


class TestRoundTrip:
    def test_files_written(self, saved):
        _, directory = saved
        for name in ("hosted.xml", "server_meta.json", "client_state.json"):
            assert os.path.exists(os.path.join(directory, name))

    def test_queries_match_original(self, saved, healthcare_doc):
        original, directory = saved
        loaded = load_system(directory, MASTER)
        for query in QUERIES:
            expected = sorted(
                canonical_node(n) for n in evaluate(healthcare_doc, query)
            )
            assert loaded.query(query).canonical() == expected, query

    def test_loaded_metadata_matches(self, saved):
        original, directory = saved
        loaded = load_system(directory, MASTER)
        assert loaded.hosted.block_count() == original.hosted.block_count()
        assert loaded.hosted.encrypted_tags == original.hosted.encrypted_tags
        assert loaded.hosted.field_tokens == original.hosted.field_tokens
        assert len(loaded.hosted.structural_index.all_entries()) == len(
            original.hosted.structural_index.all_entries()
        )

    def test_aggregates_after_load(self, saved):
        _, directory = saved
        loaded = load_system(directory, MASTER)
        assert loaded.aggregate("//patient/age", "avg") == 37.5
        assert loaded.aggregate("//SSN", "min", mode="server") == (
            loaded.aggregate("//SSN", "min")
        )

    def test_updates_after_load(self, saved, healthcare_doc):
        _, directory = saved
        loaded = load_system(directory, MASTER)
        loaded.update_value("//patient[pname='Betty']/SSN", "555555")
        answer = loaded.query("//patient[SSN='555555']/pname")
        assert answer.values() == ["Betty"]

    def test_save_load_save_stable(self, saved, tmp_path):
        _, directory = saved
        loaded = load_system(directory, MASTER)
        second_directory = str(tmp_path / "hosting2")
        save_system(loaded, second_directory)
        reloaded = load_system(second_directory, MASTER)
        assert reloaded.query("//SSN").canonical() == loaded.query(
            "//SSN"
        ).canonical()


class TestKeySeparation:
    def test_wrong_master_key_cannot_decrypt(self, saved):
        _, directory = saved
        intruder = load_system(directory, b"wrong-key-wrong-key-wrong-key-!!")
        # Wrong key -> wrong tag tokens -> the index lookup misses and the
        # intruder sees nothing...
        assert intruder.query("//insurance").canonical() == []
        # ...and actually touching the ciphertext (the naive path decrypts
        # every block) fails outright.
        with pytest.raises(Exception):
            intruder.naive_query("//insurance")

    def test_server_files_hold_no_sensitive_plaintext(self, saved):
        original, directory = saved
        with open(os.path.join(directory, "hosted.xml")) as f:
            hosted_xml = f.read()
        with open(os.path.join(directory, "server_meta.json")) as f:
            meta_text = f.read()
        for field, plan in original.hosted.field_plans.items():
            for value in plan.ordered_values:
                assert f">{value}<" not in hosted_xml
                assert f'"{value}"' not in meta_text

    def test_client_state_is_the_sensitive_file(self, saved):
        """Documents the trust boundary: client_state.json stays home."""
        _, directory = saved
        with open(os.path.join(directory, "client_state.json")) as f:
            client_state = json.load(f)
        assert "occurrences" in client_state  # plaintext values live here


class TestVersioning:
    def test_bad_version_rejected(self, saved):
        _, directory = saved
        path = os.path.join(directory, "server_meta.json")
        with open(path) as f:
            meta = json.load(f)
        meta["version"] = 999
        with open(path, "w") as f:
            json.dump(meta, f)
        with pytest.raises(ValueError):
            load_system(directory, MASTER)


class TestSaveWithLiveInsert:
    """An insert takes the high-water hosted id, out of document order;
    the reload renumbers in document order.  Saved metadata must name
    nodes by the ids the reload assigns, or every index entry at or after
    the insert point resolves to the wrong node (wrong answers, no error).
    """

    @pytest.mark.parametrize("backend", ["object", "columnar"])
    @pytest.mark.parametrize(
        "parent, tag, value",
        [("{dataset}", "note", "hello"), ("{dataset}/distribution", "last", "Zed")],
        ids=["plaintext", "encrypted"],
    )
    def test_reloaded_answers_match_live_and_plaintext(
        self, tmp_path, nasa_scs, backend, parent, tag, value
    ):
        document = build_nasa_database(dataset_count=12, seed=13)
        # Early in the document, so most entries sit after the insert.
        title = next(document.root.find_elements("title")).text_value()
        dataset = f"//dataset[title='{title}']"
        parent = parent.format(dataset=dataset)

        live = SecureXMLSystem.host(
            document.clone(), nasa_scs, scheme="opt",
            master_key=MASTER, backend=backend,
        )
        live.insert_element(parent, tag, value)
        (target,) = evaluate(document, parent)
        target.append(Element(tag)).append(Text(value))
        document.renumber()

        directory = str(tmp_path / "hosting")
        save_system(live, directory)
        loaded = load_system(directory, MASTER, backend=backend)
        for query in (
            "//dataset/note",
            "//distribution/last",
            f"{dataset}/altname",
            f"{parent}[{tag}='{value}']/{tag}",
            "//dataset/title",
        ):
            expected = sorted(
                canonical_node(n) for n in evaluate(document, query)
            )
            assert live.query(query).canonical() == expected, query
            assert loaded.query(query).canonical() == expected, query
        assert expected  # the last query is not vacuous

    def test_columnar_rows_keep_the_no_hosted_node_sentinel(
        self, tmp_path, nasa_scs
    ):
        """The inserted Text carries no hosted id; the saved hosted-id
        plane must not mistake that for the plane's 'none attached'."""
        document = build_nasa_database(dataset_count=12, seed=13)
        title = next(document.root.find_elements("title")).text_value()
        live = SecureXMLSystem.host(
            document, nasa_scs, scheme="opt", master_key=MASTER,
            backend="columnar",
        )
        live.insert_element(f"//dataset[title='{title}']", "note", "hello")
        saved_id = renumbered_hosted_ids(live.hosted.hosted_root)
        assert all(old >= 0 for old in saved_id)
        expected = {
            saved_id[old]: low
            for old, low in live.hosted.structural_index.hosted_node_lows().items()
        }

        directory = str(tmp_path / "hosting")
        save_system(live, directory)
        loaded = load_system(directory, MASTER, backend="columnar")
        index = loaded.hosted.structural_index
        assert index.hosted_node_lows() == expected
        block_entries = [
            entry for entry in index.all_entries() if entry.block_id is not None
        ]
        assert block_entries
        assert all(entry.hosted_node is None for entry in block_entries)
