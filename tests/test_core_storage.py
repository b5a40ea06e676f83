"""Tests for saving and loading hosted systems."""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.core.client import canonical_node
from repro.core.storage import StorageError, load_system, save_system
from repro.core.system import SecureXMLSystem
from repro.workloads.axes import AxisWorkload
from repro.workloads.nasa import build_nasa_database
from repro.xmldb.node import Element, Text
from repro.xpath.evaluator import evaluate
from test_storage_crash import reseal_manifest
from updates_oracle import write_plaintext

MASTER = b"storage-test-master-key-32bytes!"

#: The healthcare document hosted under ``opt`` with ``MASTER`` and saved
#: by PR 17, the last commit whose saves carried a second copy of the DSI
#: (``columns.json`` / ``columns.bin``, listed in its manifest).
PARENT_FORMAT_HOSTING = os.path.join(
    os.path.dirname(__file__), "fixtures", "hosting_saved_by_pr17"
)

#: The same, saved by PR 19 (``bdcff64``, the last version-2 writer) after
#: ``PR19_WRITES`` — so it holds a block rewritten under the IV its first
#: payload used, and a block whose id was ``max(existing) + 1``.
WRITTEN_PARENT_FORMAT_HOSTING = os.path.join(
    os.path.dirname(__file__), "fixtures", "hosting_saved_by_pr19"
)
PR19_WRITES = (
    ("insert_element", "//patient[pname='Matt']/treat", "disease", "measles"),
    ("update_value", "//patient[pname='Betty']/SSN", "111222"),
    (
        "delete_element",
        "//patient[pname='Betty']/treat[doctor='Walker']/disease",
    ),
)
PR19_QUERIES = (
    "//patient[SSN='111222']/pname",
    "//treat[disease='measles']/doctor",
    "//treat[disease='diarrhea']/doctor",
    "//patient[SSN>200000]/pname",
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


def _write_marker(directory, name, version):
    """Set one file's ``version`` and re-list it in the manifest."""
    path = Path(directory, name)
    meta = json.loads(path.read_text())
    meta["version"] = version
    path.write_text(json.dumps(meta))
    reseal_manifest(directory)


class TestParentFormatHosting:
    """Version-2 directories — written when OPE and every stream drew from
    another PRF, and a rewritten block reused its id's IV — still load.

    Load is driven by the files the manifest *lists* (the column files of
    PR 17's save are digest-checked, then ignored) and by the version
    marker: a version-2 value index is rebuilt from ``occurrences`` under
    the current OPE instead of being read, because its keys pair with
    field plans this code can no longer derive.
    """

    def _answers_like_a_fresh_hosting(self, loaded, document, constraints):
        fresh = SecureXMLSystem.host(
            document, constraints, scheme="opt", master_key=MASTER
        )
        queries = [*AxisWorkload(document).queries(), *QUERIES, *PR19_QUERIES]
        answered = 0
        for query in queries:
            expected = fresh.query(query).canonical()
            assert loaded.query(query).canonical() == expected, query
            assert expected == sorted(
                canonical_node(n) for n in evaluate(document, query)
            ), query
            answered += bool(expected)
        assert answered > len(queries) // 2
        # The rebuilt value index holds the keys a fresh hosting draws
        # (block ids are the hosting's own numbering).
        assert {
            token: [key for key, _ in entries.items()]
            for token, entries in loaded.hosted.value_index.fields.items()
        } == {
            token: [key for key, _ in entries.items()]
            for token, entries in fresh.hosted.value_index.fields.items()
        }

    def test_loads_answers_resaves_and_still_checks_every_listed_file(
        self, tmp_path, healthcare_doc, healthcare_scs
    ):
        directory = str(tmp_path / "parent")
        shutil.copytree(PARENT_FORMAT_HOSTING, directory)
        loaded = load_system(directory, MASTER)
        self._answers_like_a_fresh_hosting(loaded, healthcare_doc, healthcare_scs)
        expected = [loaded.query(query).canonical() for query in QUERIES]
        assert all(expected)

        resaved = str(tmp_path / "resaved")
        save_system(loaded, resaved)
        data_files = ["client_state.json", "hosted.xml", "server_meta.json"]
        assert sorted(os.listdir(resaved)) == sorted(
            [*data_files, "manifest.json"]
        )
        with open(os.path.join(resaved, "manifest.json")) as f:
            manifest = json.load(f)
        assert sorted(manifest["files"]) == data_files
        # Ciphertext and intervals are carried over byte for byte; what
        # moves is the version marker and the value-index keys.
        assert (
            Path(resaved, "hosted.xml").read_bytes()
            == Path(directory, "hosted.xml").read_bytes()
        )
        old_meta = json.loads(Path(directory, "server_meta.json").read_text())
        new_meta = json.loads(Path(resaved, "server_meta.json").read_text())
        assert (old_meta["version"], new_meta["version"]) == (2, 3)
        assert manifest["version"] == 3
        assert json.loads(Path(resaved, "client_state.json").read_text())[
            "version"
        ] == 3
        assert new_meta["dsi"] == old_meta["dsi"]
        assert new_meta["block_table"] == old_meta["block_table"]
        assert new_meta["value_index"] != old_meta["value_index"]
        reloaded = load_system(resaved, MASTER)
        assert [reloaded.query(q).canonical() for q in QUERIES] == expected

        columns = Path(directory, "columns.bin")
        data = bytearray(columns.read_bytes())
        data[len(data) // 2] ^= 0x01
        columns.write_bytes(data)
        with pytest.raises(StorageError) as excinfo:
            load_system(directory, MASTER)
        assert "columns.bin" in str(excinfo.value)

    def test_a_hosting_written_to_under_the_old_iv_rule_loads_and_takes_writes(
        self, tmp_path, healthcare_doc, healthcare_scs
    ):
        """PR 19's save after one insert, one ``update_value`` and one
        delete: block 1 (Betty's SSN) was re-encrypted under its id's IV,
        block 8 (the inserted disease) took ``max(existing) + 1``."""
        directory = str(tmp_path / "written")
        shutil.copytree(WRITTEN_PARENT_FORMAT_HOSTING, directory)
        for method, xpath, *args in PR19_WRITES:
            write_plaintext(healthcare_doc, method, xpath, *args)
        loaded = load_system(directory, MASTER)
        assert loaded.hosted.block_stamps == {}
        assert loaded.hosted.epoch == len(PR19_WRITES)
        self._answers_like_a_fresh_hosting(loaded, healthcare_doc, healthcare_scs)

        # A further write on the already-rewritten block: stamped, so its
        # IV is not the one both of the block's earlier payloads used.
        before = loaded.hosted.blocks[1]
        loaded.update_value("//patient[pname='Betty']/SSN", "111333")
        assert loaded.hosted.block_stamps == {1: len(PR19_WRITES) + 1}
        assert loaded.hosted.blocks[1][:16] != before[:16]
        assert loaded.query("//patient[SSN='111333']/pname").values() == ["Betty"]
        loaded.insert_element("//patient[pname='Betty']", "SSN", "999000")
        assert max(loaded.hosted.blocks) == 9

        resaved = str(tmp_path / "resaved")
        save_system(loaded, resaved)
        state = json.loads(Path(resaved, "client_state.json").read_text())
        assert state["version"] == 3
        assert state["block_stamps"] == {"1": 4, "9": 5}
        assert state["max_block_id"] == 9
        reloaded = load_system(resaved, MASTER)
        assert reloaded.hosted.block_stamps == {1: 4, 9: 5}
        assert sorted(reloaded.query("//SSN").values()) == [
            "111333", "276543", "999000",
        ]

    def test_a_deleted_highest_block_id_is_never_handed_out_again(
        self, tmp_path
    ):
        """A version-2 state has no block-id mark: it is seeded with the
        largest id at load, not at the first insert after a delete."""
        directory = str(tmp_path / "written")
        shutil.copytree(WRITTEN_PARENT_FORMAT_HOSTING, directory)
        loaded = load_system(directory, MASTER)
        assert max(loaded.hosted.blocks) == 8  # the inserted measles
        loaded.delete_element("//treat/disease[.='measles']")
        assert 8 not in loaded.hosted.blocks
        loaded.insert_element("//patient[pname='Betty']", "SSN", "999000")
        assert max(loaded.hosted.blocks) == 9

        resaved = str(tmp_path / "resaved")
        save_system(loaded, resaved)
        state = json.loads(Path(resaved, "client_state.json").read_text())
        assert state["max_block_id"] == 9

    @pytest.mark.parametrize("version", [1, 4])
    @pytest.mark.parametrize(
        "name", ["server_meta.json", "client_state.json"]
    )
    def test_any_other_version_marker_is_refused_by_name(
        self, tmp_path, name, version
    ):
        directory = str(tmp_path / "marked")
        shutil.copytree(WRITTEN_PARENT_FORMAT_HOSTING, directory)
        _write_marker(directory, name, version)
        with pytest.raises(StorageError) as excinfo:
            load_system(directory, MASTER)
        assert name in str(excinfo.value)
        assert f"version {version}" in str(excinfo.value)
