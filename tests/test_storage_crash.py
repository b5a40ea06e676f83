"""Crash-safety and corruption-detection tests for persisted hostings."""

import hashlib
import json
import os

import pytest

from repro.core.opess import KeyRuns
from repro.core.storage import (
    CrashInjected,
    StorageError,
    crash_points,
    load_system,
    save_system,
    set_crash_point,
)
from repro.core.system import SecureXMLSystem

MASTER = b"crash-test-master-key-32-bytes!!"
PROBE = "//patient[pname='Betty']/SSN"


@pytest.fixture(autouse=True)
def disarm_crash_hook():
    yield
    set_crash_point(None)


def reseal_manifest(directory):
    """Re-list every file at its current digest, as a saver would: an
    edit below the manifest then meets the load's deeper checks, not the
    checksum gate."""
    path = os.path.join(directory, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    for name in manifest["files"]:
        with open(os.path.join(directory, name), "rb") as f:
            manifest["files"][name] = hashlib.sha256(f.read()).hexdigest()
    with open(path, "w") as f:
        json.dump(manifest, f)


@pytest.fixture
def hosted_pair(tmp_path, healthcare_doc, healthcare_scs):
    """(v1 system, v2 system, v1 probe answer, v2 probe answer)."""
    v1 = SecureXMLSystem.host(
        healthcare_doc, healthcare_scs, scheme="opt", master_key=MASTER
    )
    v1_answer = v1.query(PROBE).values()
    seed_dir = str(tmp_path / "seed")
    save_system(v1, seed_dir)
    v2 = load_system(seed_dir, MASTER)
    v2.update_value(PROBE, "555555")
    v2_answer = v2.query(PROBE).values()
    assert v1_answer != v2_answer
    return v1, v2, v1_answer, v2_answer


class TestCrashSweep:
    def test_killed_save_never_corrupts_previous_hosting(
        self, tmp_path, hosted_pair
    ):
        """Kill the save at every protocol step: load must always succeed
        and always see a *consistent* hosting (entirely v1 or entirely v2,
        never a mix)."""
        v1, v2, v1_answer, v2_answer = hosted_pair
        assert len(crash_points()) == 8  # stage + commit of four files
        for point in crash_points():
            directory = str(tmp_path / point.replace(":", "_"))
            save_system(v1, directory)  # the previous, intact hosting
            set_crash_point(point)
            with pytest.raises(CrashInjected):
                save_system(v2, directory)
            set_crash_point(None)
            loaded = load_system(directory, MASTER)
            answer = loaded.query(PROBE).values()
            assert answer in (v1_answer, v2_answer), point
            # Recovery must leave no staged litter behind.
            leftovers = [
                name for name in os.listdir(directory)
                if name.endswith(".new")
            ]
            assert leftovers == [], point

    def test_crash_before_commit_keeps_old_generation(
        self, tmp_path, hosted_pair
    ):
        v1, v2, v1_answer, _ = hosted_pair
        directory = str(tmp_path / "precommit")
        save_system(v1, directory)
        set_crash_point("stage:manifest.json")
        with pytest.raises(CrashInjected):
            save_system(v2, directory)
        set_crash_point(None)
        loaded = load_system(directory, MASTER)
        assert loaded.query(PROBE).values() == v1_answer

    def test_crash_after_staging_rolls_forward(self, tmp_path, hosted_pair):
        v1, v2, _, v2_answer = hosted_pair
        directory = str(tmp_path / "postcommit")
        save_system(v1, directory)
        set_crash_point("commit:hosted.xml")  # staged fully, published nothing
        with pytest.raises(CrashInjected):
            save_system(v2, directory)
        set_crash_point(None)
        loaded = load_system(directory, MASTER)
        assert loaded.query(PROBE).values() == v2_answer

    def test_clean_save_leaves_no_staging_files(self, tmp_path, hosted_pair):
        v1, _, _, _ = hosted_pair
        directory = str(tmp_path / "clean")
        save_system(v1, directory)
        assert sorted(os.listdir(directory)) == [
            "client_state.json", "hosted.xml", "manifest.json",
            "server_meta.json",
        ]


class TestCorruptionDetection:
    @pytest.fixture
    def saved(self, tmp_path, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt", master_key=MASTER
        )
        directory = str(tmp_path / "hosting")
        save_system(system, directory)
        return directory

    @pytest.mark.parametrize(
        "victim",
        ["hosted.xml", "server_meta.json", "client_state.json"],
    )
    def test_flipped_byte_names_the_bad_file(self, saved, victim):
        path = os.path.join(saved, victim)
        with open(path, "rb") as f:
            data = bytearray(f.read())
        data[len(data) // 2] ^= 0x01
        with open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(StorageError) as excinfo:
            load_system(saved, MASTER)
        assert victim in str(excinfo.value)

    @pytest.mark.parametrize(
        "victim",
        ["hosted.xml", "server_meta.json", "client_state.json"],
    )
    def test_missing_file_names_the_bad_file(self, saved, victim):
        os.remove(os.path.join(saved, victim))
        with pytest.raises(StorageError) as excinfo:
            load_system(saved, MASTER)
        assert victim in str(excinfo.value)

    def test_malformed_manifest_rejected(self, saved):
        path = os.path.join(saved, "manifest.json")
        with open(path, "w") as f:
            f.write('{"version": 2}')  # no "files" key
        with pytest.raises(StorageError, match="manifest"):
            load_system(saved, MASTER)

    def test_invalid_json_wrapped_without_manifest(self, saved):
        """The load-path JSON errors surface as StorageError + path even
        with no manifest digest to fail first."""
        path = os.path.join(saved, "server_meta.json")
        with open(path, "w") as f:
            f.write("{not json")
        reseal_manifest(saved)
        with pytest.raises(StorageError) as excinfo:
            load_system(saved, MASTER)
        assert "server_meta.json" in str(excinfo.value)
        assert "JSON" in str(excinfo.value)

    def test_missing_key_wrapped_without_manifest(self, saved):
        path = os.path.join(saved, "server_meta.json")
        with open(path) as f:
            meta = json.load(f)
        del meta["dsi"]
        with open(path, "w") as f:
            json.dump(meta, f)
        reseal_manifest(saved)
        with pytest.raises(StorageError) as excinfo:
            load_system(saved, MASTER)
        assert "server_meta.json" in str(excinfo.value)

    @staticmethod
    def _rewrite_value_index(saved, rewrite):
        """Edit one persisted value-index list, manifest resealed."""
        path = os.path.join(saved, "server_meta.json")
        with open(path) as f:
            meta = json.load(f)
        token = max(meta["value_index"], key=lambda t: len(meta["value_index"][t]))
        rewrite(meta["value_index"][token])
        with open(path, "w") as f:
            json.dump(meta, f)
        reseal_manifest(saved)

    def test_value_index_rows_load_in_saved_order(self, saved):
        """The untouched list loads: it is ``items()``, key order."""
        self._rewrite_value_index(saved, lambda rows: None)
        loaded = load_system(saved, MASTER)
        for entries in loaded.hosted.value_index.fields.values():
            KeyRuns(entries.keys, entries.runs)  # refuses keys out of order
        assert loaded.query(PROBE).values()

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda rows: rows.reverse(),
            lambda rows: rows.append([rows[0][0] - 1, rows[0][1]]),
            lambda rows: rows.insert(0, [rows[-1][0], rows[-1][1]]),
        ],
        ids=["reversed", "smaller-key-last", "largest-key-first"],
    )
    def test_value_index_keys_out_of_order_rejected(self, saved, rewrite):
        """Any order used to be accepted from disk and re-sorted silently."""
        self._rewrite_value_index(saved, rewrite)
        with pytest.raises(StorageError, match="out of order") as excinfo:
            load_system(saved, MASTER)
        assert "server_meta.json" in str(excinfo.value)

    @pytest.mark.parametrize(
        "row",
        [[1.5, 2], ["7", 2], [7, None], [True, 2], [7, 2, 3], [7], 7, "ab", {}],
        ids=repr,
    )
    def test_value_index_row_shape_rejected(self, saved, row):
        self._rewrite_value_index(saved, lambda rows: rows.append(row))
        with pytest.raises(StorageError) as excinfo:
            load_system(saved, MASTER)
        assert "server_meta.json" in str(excinfo.value)

    @pytest.mark.parametrize(
        "hosted_xml", ["<a>" * 3000 + "</a>" * 3000, "<a>&#xZZ;</a>"]
    )
    def test_hostile_hosted_tree_wrapped_without_manifest(
        self, saved, hosted_xml
    ):
        """Deep nesting used to escape as RecursionError, untyped."""
        with open(os.path.join(saved, "hosted.xml"), "w") as f:
            f.write(hosted_xml)
        reseal_manifest(saved)
        with pytest.raises(StorageError) as excinfo:
            load_system(saved, MASTER)
        assert "hosted.xml" in str(excinfo.value)

    def test_storage_error_is_a_value_error(self):
        assert issubclass(StorageError, ValueError)

    def test_stale_staged_files_are_discarded_on_load(self, saved):
        stale = os.path.join(saved, "hosted.xml.new")
        with open(stale, "w") as f:
            f.write("<garbage/>")
        system = load_system(saved, MASTER)
        assert not os.path.exists(stale)
        assert system.query("//SSN").canonical()


class TestFreshnessPersistence:
    """The client's freshness anchor (epoch + Merkle root) survives
    crashes atomically with the hosting it describes."""

    def test_epoch_and_root_roundtrip(self, tmp_path, hosted_pair):
        _, v2, _, v2_answer = hosted_pair
        directory = str(tmp_path / "anchor")
        save_system(v2, directory)
        loaded = load_system(directory, MASTER)
        assert loaded.hosted.epoch == v2.hosted.epoch
        assert loaded.hosted.epoch > 0  # v2 is post-update
        assert loaded.hosted.state_root() == v2.hosted.state_root()
        assert loaded.query(PROBE).values() == v2_answer

    def test_crash_sweep_never_mixes_anchor_and_state(
        self, tmp_path, hosted_pair
    ):
        """At every crash point the recovered hosting's (epoch, root)
        pair is exactly v1's or exactly v2's, and always the pair
        matching the answer it serves — a torn anchor would turn every
        later exchange into a false rollback alarm."""
        v1, v2, v1_answer, v2_answer = hosted_pair
        anchors = {
            tuple(v1_answer): (v1.hosted.epoch, v1.hosted.state_root()),
            tuple(v2_answer): (v2.hosted.epoch, v2.hosted.state_root()),
        }
        assert anchors[tuple(v1_answer)] != anchors[tuple(v2_answer)]
        for point in crash_points():
            directory = str(tmp_path / point.replace(":", "_"))
            save_system(v1, directory)
            set_crash_point(point)
            with pytest.raises(CrashInjected):
                save_system(v2, directory)
            set_crash_point(None)
            loaded = load_system(directory, MASTER)
            answer = loaded.query(PROBE).values()
            assert tuple(answer) in anchors, point
            assert (
                loaded.hosted.epoch, loaded.hosted.state_root()
            ) == anchors[tuple(answer)], point

    def test_tampered_root_is_rejected_at_load(self, tmp_path, hosted_pair):
        v1, _, _, _ = hosted_pair
        directory = str(tmp_path / "tamper")
        save_system(v1, directory)
        # Reseal the manifest so the whole-file checksum gate cannot fire
        # first: the root check must stand on its own.
        path = os.path.join(directory, "client_state.json")
        with open(path) as f:
            state = json.load(f)
        assert "state_root" in state and "epoch" in state
        state["state_root"] = "00" * 32
        with open(path, "w") as f:
            json.dump(state, f)
        reseal_manifest(directory)
        with pytest.raises(StorageError) as excinfo:
            load_system(directory, MASTER)
        assert "client_state.json" in str(excinfo.value)
        assert "root mismatch" in str(excinfo.value)

    @pytest.mark.parametrize("stripped", ["state_root", "epoch", "manifest.json"])
    def test_a_stripped_anchor_or_manifest_fails_typed(
        self, tmp_path, hosted_pair, stripped
    ):
        """Every loadable directory carries both: one without is refused
        by name, never loaded unchecked at epoch 0."""
        directory = str(tmp_path / "stripped")
        save_system(hosted_pair[0], directory)
        path = os.path.join(directory, "client_state.json")
        if stripped == "manifest.json":
            os.remove(os.path.join(directory, stripped))
        else:
            with open(path) as f:
                state = json.load(f)
            del state[stripped]
            with open(path, "w") as f:
                json.dump(state, f)
            reseal_manifest(directory)
        with pytest.raises(StorageError, match=stripped):
            load_system(directory, MASTER)


class TestCliDiagnostics:
    def test_corrupt_hosting_exits_nonzero_with_one_line(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        directory = str(tmp_path / "hosting")
        assert main(
            ["host", "--workload", "healthcare", "--save", directory]
        ) == 0
        capsys.readouterr()
        path = os.path.join(directory, "hosted.xml")
        with open(path, "rb") as f:
            data = bytearray(f.read())
        data[10] ^= 0xFF
        with open(path, "wb") as f:
            f.write(bytes(data))

        exit_code = main(["query", "--load", directory, "//SSN"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        error_lines = captured.err.strip().splitlines()
        assert len(error_lines) == 1
        assert "hosted.xml" in error_lines[0]

    def test_missing_directory_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "nope")
        exit_code = main(["query", "--load", missing, "//SSN"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "nope" in captured.err
