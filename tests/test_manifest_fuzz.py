"""Decoder fuzz target for a saved hosting's ``manifest.json``.

The manifest maps each file of a saved hosting to its SHA-256 digest, and
:func:`~repro.core.storage.load_system` checks every listed file against
it before it parses anything.  Like the rest of the hosting it is stored
by the untrusted side.  The properties:

* any JSON value as ``files``, and any byte mutation of the real
  manifest, either loads or raises ``StorageError`` — never another type;
* a load that succeeds had every data file listed at its true digest: a
  manifest that lists too little is refused, not taken as "check nothing",
  and so is one that names a file outside the hosting directory;
* the same holds for a staged ``manifest.json.new`` that an interrupted
  save left behind, which recovery reads before the manifest;
* every one of those loads finishes within a fixed bound.
"""

import hashlib
import json
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.storage import StorageError, load_system, save_system
from repro.core.system import SecureXMLSystem
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from test_storage_fuzz import rewrite

MASTER_KEY = b"manifest-fuzz-master-key"
DATA_FILES = ("hosted.xml", "server_meta.json", "client_state.json")
#: Seconds one load of the (tiny) healthcare hosting may take, hostile or
#: not; an honest load takes a few milliseconds.
LOAD_BOUND_S = 5.0

_fuzz_settings = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _save(directory: Path) -> dict:
    system = SecureXMLSystem.host(
        build_healthcare_database(),
        healthcare_constraints(),
        master_key=MASTER_KEY,
    )
    save_system(system, str(directory))
    return json.loads(Path(directory, "manifest.json").read_text())


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A saved healthcare hosting and its manifest as parsed."""
    directory = tmp_path_factory.mktemp("hosting")
    manifest = _save(directory)
    assert sorted(manifest["files"]) == sorted(DATA_FILES)
    return directory, manifest


def _digest(path: Path) -> "str | None":
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _every_data_file_was_checked(directory: Path, manifest: object) -> bool:
    """What a load that succeeded must have seen: every data file listed,
    and every listed file at its true digest."""
    if not isinstance(manifest, dict):
        return False
    files = manifest.get("files")
    return (
        isinstance(files, dict)
        and all(name in files for name in DATA_FILES)
        and all(
            isinstance(name, str) and _digest(directory / name) == digest
            for name, digest in files.items()
        )
    )


def _loads(directory: Path) -> bool:
    """Whether the hosting loads; a refusal is a ``StorageError``, and
    either comes within the bound."""
    started = time.perf_counter()
    try:
        load_system(str(directory), MASTER_KEY).close()
        loaded = True
    except StorageError:
        loaded = False
    assert time.perf_counter() - started < LOAD_BOUND_S
    return loaded


def _load(directory: Path, manifest_bytes: bytes) -> None:
    """Load with ``manifest_bytes`` as the manifest: the load raises
    ``StorageError``, or succeeds having checked every data file."""
    rewrite(Path(directory, "manifest.json"), manifest_bytes)
    if _loads(directory):
        assert _every_data_file_was_checked(
            directory, json.loads(manifest_bytes)
        ), manifest_bytes


def _dump(manifest) -> bytes:
    return json.dumps(manifest).encode("utf-8")


# ----------------------------------------------------------------------
# Any JSON value as ``files``
# ----------------------------------------------------------------------
_names = st.sampled_from([*DATA_FILES, "columns.json", ""]) | st.text(
    max_size=4
)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
)


def _containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(
        _names, inner, max_size=5
    )


_json = st.recursive(_leaves, _containers, max_leaves=20)


class Edit(NamedTuple):
    """The real ``files`` map with entries dropped, then some set."""

    dropped: frozenset
    setting: dict

    def apply(self, real: dict) -> dict:
        files = {k: v for k, v in real.items() if k not in self.dropped}
        files.update(self.setting)
        return files


_edits = st.builds(
    Edit,
    st.frozensets(st.sampled_from(DATA_FILES)),
    st.dictionaries(_names, _json, max_size=3),
)


@_fuzz_settings
@given(_json | _edits)
@example("abcd")
@example(["abc"])
@example([["a", "b", "c"]])
@example({})
@example(Edit(frozenset(), {"\x00": "0"}))  # a name open() cannot take
def test_any_json_as_files_loads_or_is_refused(saved, files):
    directory, manifest = saved
    if isinstance(files, Edit):
        files = files.apply(manifest["files"])
    _load(directory, _dump(dict(manifest, files=files)))


@pytest.mark.parametrize(
    "files", ["abcd", ["abc"], [["a", "b", "c"]], [], 7, None, {"x": 1}]
)
def test_a_files_entry_of_the_wrong_shape_names_the_manifest(saved, files):
    directory, manifest = saved
    rewrite(
        Path(directory, "manifest.json"), _dump(dict(manifest, files=files))
    )
    with pytest.raises(StorageError, match="manifest.json"):
        load_system(str(directory), MASTER_KEY)


@pytest.mark.parametrize("staged", [False, True])
def test_json_nested_past_the_recursion_limit_is_refused(saved, staged):
    """``json.loads`` raises ``RecursionError`` on deep nesting."""
    directory, manifest = saved
    deep = b'{"files": ' + b"[" * 100_000
    rewrite(
        Path(directory, "manifest.json"), _dump(manifest) if staged else deep
    )
    if staged:  # recovery discards it; the manifest loads
        rewrite(Path(directory, "manifest.json.new"), deep)
        load_system(str(directory), MASTER_KEY).close()
        assert not Path(directory, "manifest.json.new").exists()
    else:
        with pytest.raises(StorageError, match="manifest.json"):
            load_system(str(directory), MASTER_KEY)


@pytest.mark.parametrize("unlisted", [(), DATA_FILES[:1], DATA_FILES])
def test_an_edited_file_is_caught_whatever_the_manifest_leaves_out(
    tmp_path, unlisted
):
    """An edit of a file the manifest leaves out is not let through: a
    manifest that lists less than every data file is refused."""
    manifest = _save(tmp_path)
    hosted = tmp_path / "hosted.xml"
    rewrite(hosted, hosted.read_bytes().replace(b"Matt", b"Mutt"))
    files = {
        name: digest
        for name, digest in manifest["files"].items()
        if name not in unlisted
    }
    rewrite(tmp_path / "manifest.json", _dump(dict(manifest, files=files)))
    with pytest.raises(StorageError) as refused:
        load_system(str(tmp_path), MASTER_KEY)
    assert refused.value.path.endswith(
        "hosted.xml" if not unlisted else "manifest.json"
    ), refused.value


@pytest.mark.parametrize("name", ["../outside.txt", "", ".", "sub/x"])
def test_a_name_that_is_not_a_file_of_the_hosting_is_refused(tmp_path, name):
    """The load hashes every listed name and recovery renames it: a name
    that reaches outside the directory is refused even at a true digest."""
    manifest = _save(tmp_path / "hosting")
    outside = tmp_path / "outside.txt"
    outside.write_text("not part of the hosting")
    files = dict(manifest["files"], **{name: _digest(outside)})
    rewrite(
        Path(tmp_path, "hosting", "manifest.json"),
        _dump(dict(manifest, files=files)),
    )
    with pytest.raises(StorageError, match="manifest.json"):
        load_system(str(tmp_path / "hosting"), MASTER_KEY)


def test_extra_listed_files_are_still_checked(tmp_path):
    """A name beyond the data files (an older save's ``columns.*``) loads
    when its digest holds and is refused when it does not."""
    manifest = _save(tmp_path)
    extra = tmp_path / "columns.json"
    extra.write_text("{}")
    files = dict(manifest["files"], **{"columns.json": _digest(extra)})
    rewrite(tmp_path / "manifest.json", _dump(dict(manifest, files=files)))
    load_system(str(tmp_path), MASTER_KEY).close()
    rewrite(extra, b"[]")
    with pytest.raises(StorageError, match="columns.json"):
        load_system(str(tmp_path), MASTER_KEY)


# ----------------------------------------------------------------------
# Byte mutations of the real manifest
# ----------------------------------------------------------------------
_mutations = st.lists(
    st.tuples(
        st.sampled_from(["flip", "drop", "insert", "truncate"]),
        st.floats(min_value=0, max_value=1, exclude_max=True),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=4,
)


def _mutate(payload: bytes, mutations) -> bytes:
    mutated = bytearray(payload)
    for kind, where, byte in mutations:
        at = int(where * len(mutated))
        if kind == "flip" and mutated:
            mutated[at] ^= byte or 1
        elif kind == "drop" and mutated:
            del mutated[at]
        elif kind == "insert":
            mutated.insert(at, byte)
        else:
            del mutated[at:]
    return bytes(mutated)


@_fuzz_settings
@given(_mutations)
def test_mutated_manifest_bytes_load_or_are_refused(saved, mutations):
    directory, manifest = saved
    _load(directory, _mutate(_dump(manifest), mutations))


# ----------------------------------------------------------------------
# A staged manifest left by an interrupted save
# ----------------------------------------------------------------------
@_fuzz_settings
@given(
    st.binary(max_size=64)
    | _json.map(lambda files: _dump({"files": files}))
    | _mutations
)
@example(_dump({"files": [[1, 2]]}))
@example(_dump({"files": {"hosted.xml": 1}}))
def test_any_staged_manifest_loads_or_is_refused(saved, staged):
    directory, manifest = saved
    if isinstance(staged, list):  # mutations of the real manifest
        staged = _mutate(_dump(manifest), staged)
    rewrite(Path(directory, "manifest.json"), _dump(manifest))
    rewrite(Path(directory, "manifest.json.new"), staged)
    try:
        _loads(directory)
    finally:
        Path(directory, "manifest.json.new").unlink(missing_ok=True)
