"""Tests for saving and loading hosted systems."""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.core.client import canonical_node
from repro.core.storage import StorageError, load_system, save_system
from repro.core.system import SecureXMLSystem
from repro.workloads.nasa import build_nasa_database
from repro.xmldb.node import Element, Text
from repro.xpath.evaluator import evaluate

MASTER = b"storage-test-master-key-32bytes!"

#: The healthcare document hosted under ``opt`` with ``MASTER`` and saved
#: by PR 17, the last commit whose saves carried a second copy of the DSI
#: (``columns.json`` / ``columns.bin``, listed in its manifest).
PARENT_FORMAT_HOSTING = os.path.join(
    os.path.dirname(__file__), "fixtures", "hosting_saved_by_pr17"
)

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

    @pytest.mark.parametrize(
        "parent, tag, value",
        [("{dataset}", "note", "hello"), ("{dataset}/distribution", "last", "Zed")],
        ids=["plaintext", "encrypted"],
    )
    def test_reloaded_answers_match_live_and_plaintext(
        self, tmp_path, nasa_scs, parent, tag, value
    ):
        document = build_nasa_database(dataset_count=12, seed=13)
        # Early in the document, so most entries sit after the insert.
        title = next(document.root.find_elements("title")).text_value()
        dataset = f"//dataset[title='{title}']"
        parent = parent.format(dataset=dataset)

        live = SecureXMLSystem.host(
            document.clone(), nasa_scs, scheme="opt", master_key=MASTER
        )
        live.insert_element(parent, tag, value)
        (target,) = evaluate(document, parent)
        target.append(Element(tag)).append(Text(value))
        document.renumber()

        directory = str(tmp_path / "hosting")
        save_system(live, directory)
        loaded = load_system(directory, MASTER)
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


class TestParentFormatHosting:
    """Load is driven by the files the manifest *lists*: the column files
    of an older save are digest-checked, then ignored."""

    def test_loads_answers_resaves_and_still_checks_every_listed_file(
        self, tmp_path, healthcare_doc, healthcare_scs
    ):
        directory = str(tmp_path / "parent")
        shutil.copytree(PARENT_FORMAT_HOSTING, directory)
        fresh = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt", master_key=MASTER
        )
        expected = [fresh.query(query).canonical() for query in QUERIES]
        assert all(expected)

        loaded = load_system(directory, MASTER)
        assert [loaded.query(q).canonical() for q in QUERIES] == expected

        resaved = str(tmp_path / "resaved")
        save_system(loaded, resaved)
        data_files = ["client_state.json", "hosted.xml", "server_meta.json"]
        assert sorted(os.listdir(resaved)) == sorted(
            [*data_files, "manifest.json"]
        )
        with open(os.path.join(resaved, "manifest.json")) as f:
            assert sorted(json.load(f)["files"]) == data_files
        for name in data_files:
            assert (
                Path(resaved, name).read_bytes()
                == Path(directory, name).read_bytes()
            ), name
        reloaded = load_system(resaved, MASTER)
        assert [reloaded.query(q).canonical() for q in QUERIES] == expected

        columns = Path(directory, "columns.bin")
        data = bytearray(columns.read_bytes())
        data[len(data) // 2] ^= 0x01
        columns.write_bytes(data)
        with pytest.raises(StorageError) as excinfo:
            load_system(directory, MASTER)
        assert "columns.bin" in str(excinfo.value)
