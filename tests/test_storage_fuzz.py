"""Decoder fuzz target for a saved hosting's ``server_meta.json``.

``server_meta.json`` holds the DSI records, the block table and the value
index's ``[key, block]`` rows.  It is stored by the untrusted side, and
``manifest.json`` holds only unkeyed SHA-256 digests, so whoever holds the
files can rewrite both.  Every case below rewrites the file, re-signs its
digest in the manifest and loads.  The properties:

* a section of the wrong JSON type — ``value_index``, ``dsi`` or
  ``block_table`` as an array, number, string, boolean or null — is a
  ``StorageError``;
* any JSON value in place of a section, a record, a row or a cell, any
  reordering or repetition of value-index rows, and any DSI parent link
  that does not name an earlier record either loads or raises
  ``StorageError`` — never any other exception;
* byte mutations of the real file load or raise ``StorageError``;
* every one of those loads finishes within a fixed bound, and allocates
  at most a fixed multiple of the bytes the hosting directory holds.
"""

import hashlib
import json
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.storage import StorageError, load_system, save_system
from repro.core.system import SecureXMLSystem
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)

MASTER_KEY = b"storage-fuzz-master-key"
#: Seconds one load of the (tiny) healthcare hosting may take, hostile or
#: not; an honest load takes a few milliseconds.
LOAD_BOUND_S = 5.0
#: Peak bytes one load may allocate per byte of the hosting directory;
#: an honest load of the healthcare hosting allocates about 8, and
#: no fuzzed load seen allocated more than 10.
ALLOC_BOUND = 32
SECTIONS = ("dsi", "block_table", "value_index")

_fuzz_settings = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A saved healthcare hosting and its ``server_meta.json`` as parsed."""
    directory = tmp_path_factory.mktemp("hosting")
    system = SecureXMLSystem.host(
        build_healthcare_database(),
        healthcare_constraints(),
        master_key=MASTER_KEY,
    )
    save_system(system, str(directory))
    meta = json.loads(Path(directory, "server_meta.json").read_text())
    assert all(meta[section] for section in SECTIONS)
    return directory, meta


def rewrite(path, payload: bytes) -> None:
    """Make ``payload`` the file's bytes, writing over it in place.

    Opening an existing file with ``"wb"`` truncates it to nothing first,
    which on ext4 mounted with ``discard`` took about 40 ms per call; this
    writes over the old bytes and cuts any tail instead (about 0.02 ms).
    A file a load renamed away is created.
    """
    try:
        with open(path, "r+b") as file:
            file.write(payload)
            file.truncate()
    except FileNotFoundError:
        Path(path).write_bytes(payload)


def _write_resigned(directory, payload: bytes) -> None:
    """Write ``payload`` as ``server_meta.json`` and re-sign its digest."""
    rewrite(Path(directory, "server_meta.json"), payload)
    manifest_path = Path(directory, "manifest.json")
    manifest = json.loads(manifest_path.read_text())
    manifest["files"]["server_meta.json"] = hashlib.sha256(payload).hexdigest()
    rewrite(manifest_path, json.dumps(manifest).encode())


def _load_resigned(directory, payload: bytes) -> None:
    """Load with ``payload`` as ``server_meta.json``: the load returns or
    raises a ``StorageError`` naming that file, within the bounds."""
    _write_resigned(directory, payload)
    stored = sum(path.stat().st_size for path in Path(directory).iterdir())
    tracemalloc.start()
    started = time.perf_counter()
    try:
        load_system(str(directory), MASTER_KEY).close()
    except StorageError as error:
        assert error.path.endswith("server_meta.json"), error
    finally:
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert elapsed < LOAD_BOUND_S
    assert peak <= ALLOC_BOUND * stored, (peak, stored)


def _dump(meta) -> bytes:
    return json.dumps(meta).encode("utf-8")


# ----------------------------------------------------------------------
# (a) A section of the wrong JSON type is a typed error
# ----------------------------------------------------------------------
_WRONG_TYPES = {
    "dsi": [{}, {"0": {}}, 0, 1.5, "dsi", True, None],
    "block_table": [[], [[0.1, 0.2]], 0, "table", False, None],
    "value_index": [[], [["T", [[1, 2]]]], 7, "rows", True, None],
}


@pytest.mark.parametrize(
    "section, value",
    [(section, value) for section, values in _WRONG_TYPES.items()
     for value in values],
)
def test_a_section_of_the_wrong_type_is_refused_typed(saved, section, value):
    directory, meta = saved
    _write_resigned(directory, _dump(dict(meta, **{section: value})))
    with pytest.raises(StorageError, match=section):
        load_system(str(directory), MASTER_KEY)


def test_the_untouched_file_loads(saved):
    directory, meta = saved
    _write_resigned(directory, _dump(meta))
    load_system(str(directory), MASTER_KEY).close()


# ----------------------------------------------------------------------
# (b) Any JSON value anywhere: a hosting or a typed error
# ----------------------------------------------------------------------
_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(
            ["key", "low", "high", "members", "block", "parent", "value",
             "hosted_id", "0", "1"]
        )
        | st.text(max_size=3),
        inner,
        max_size=8,
    ),
    max_leaves=30,
)


@_fuzz_settings
@given(st.sampled_from(SECTIONS), _json)
def test_any_json_section_loads_or_is_refused(saved, section, value):
    directory, meta = saved
    _load_resigned(directory, _dump(dict(meta, **{section: value})))


@_fuzz_settings
@given(
    st.data(),
    st.sampled_from(["record", "field", "bounds", "row", "cell"]),
    _json,
)
def test_any_json_record_row_or_cell_loads_or_is_refused(
    saved, data, where, value
):
    directory, meta = saved
    hostile = json.loads(_dump(meta))
    if where in ("record", "field"):
        records = hostile["dsi"]
        at = data.draw(st.integers(0, len(records) - 1))
        if where == "record":
            records[at] = value
        else:
            records[at][data.draw(st.sampled_from(sorted(records[at])))] = value
    elif where == "bounds":
        table = hostile["block_table"]
        table[data.draw(st.sampled_from(sorted(table)))] = value
    else:
        rows = hostile["value_index"][
            data.draw(st.sampled_from(sorted(hostile["value_index"])))
        ]
        at = data.draw(st.integers(0, len(rows) - 1))
        if where == "row":
            rows[at] = value
        else:
            rows[at][data.draw(st.integers(0, 1))] = value
    _load_resigned(directory, _dump(hostile))


# ----------------------------------------------------------------------
# (c) Well-typed but hostile: rows out of order, links that loop
# ----------------------------------------------------------------------
@_fuzz_settings
@given(st.data())
def test_reordered_or_repeated_rows_load_or_are_refused(saved, data):
    directory, meta = saved
    hostile = json.loads(_dump(meta))
    token = data.draw(st.sampled_from(sorted(hostile["value_index"])))
    rows = hostile["value_index"][token]
    hostile["value_index"][token] = data.draw(
        st.lists(st.sampled_from(rows), max_size=2 * len(rows))
        | st.permutations(rows)
    )
    _load_resigned(directory, _dump(hostile))


def test_rows_out_of_key_order_are_refused(saved):
    directory, meta = saved
    hostile = json.loads(_dump(meta))
    max(hostile["value_index"].values(), key=len).reverse()
    _write_resigned(directory, _dump(hostile))
    with pytest.raises(StorageError, match="out of order"):
        load_system(str(directory), MASTER_KEY)


@pytest.mark.parametrize(
    "link", ["self", "later", "negative", "past the end", "missing"]
)
def test_a_parent_link_that_names_no_earlier_record_is_refused(saved, link):
    directory, meta = saved
    hostile = json.loads(_dump(meta))
    records = hostile["dsi"]
    at = len(records) // 2
    if link == "missing":  # found by the byte mutations: "parent" → "qarent"
        records[at]["qarent"] = records[at].pop("parent")
    else:
        records[at]["parent"] = {
            "self": at,
            "later": at + 1,
            "negative": -1,
            "past the end": len(records),
        }[link]
    _write_resigned(directory, _dump(hostile))
    with pytest.raises(StorageError, match="'dsi' record"):
        load_system(str(directory), MASTER_KEY)


# ----------------------------------------------------------------------
# (d) Byte mutations of the real file
# ----------------------------------------------------------------------
@_fuzz_settings
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["flip", "drop", "insert", "truncate"]),
            st.floats(min_value=0, max_value=1, exclude_max=True),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_mutated_bytes_load_or_are_refused(saved, mutations):
    directory, meta = saved
    payload = bytearray(_dump(meta))
    for kind, where, byte in mutations:
        at = int(where * len(payload))
        if kind == "flip" and payload:
            payload[at] ^= byte or 1
        elif kind == "drop" and payload:
            del payload[at]
        elif kind == "insert":
            payload.insert(at, byte)
        else:
            del payload[at:]
    _load_resigned(directory, bytes(payload))
