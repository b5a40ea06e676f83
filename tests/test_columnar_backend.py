"""The columnar DSI backend: planes, kernels, knobs, and byte identity.

The backend contract is representational only: re-encoding the DSI entry
list as flat sorted plane arrays and answering structural joins with
galloping merge sweeps may change *how* a query is scheduled, never
*what* it answers.  Every test here pins some face of that contract —
plane geometry against the object rows, the gallop/sweep kernels against
bisect references, end-to-end answer bytes across backends × cluster
shapes, and identity under seeded wire faults.
"""

import json
import os
import random
from bisect import bisect_right

import pytest

from repro.core.columnar import (
    BACKEND_ENV,
    ColumnarPlanes,
    LazyStructuralIndex,
    _gallop_right,
    backend_from_env,
    resolve_backend,
    sweep_descendant,
)
from repro.core.colstore import (
    COLSTORE_VERSION,
    ColstoreError,
    load_columns,
    pack_columns,
    unpack_columns,
)
from repro.core.dsi import assign_intervals
from repro.core.storage import load_system, save_system
from repro.core.system import QueryFailedError, SecureXMLSystem
from repro.cluster.placement import ClusterConfig, build_placement
from repro.crypto.prf import DeterministicRandom
from repro.netsim import FaultPolicy, FaultyChannel

MASTER = b"columnar-test-master-key-32bytes"

#: Per-workload probe sets exercising every axis kind the matcher has:
#: descendant, child, attribute, value predicates (plaintext + encrypted),
#: wildcards, and empty answers.
WORKLOAD_QUERIES = {
    "healthcare": [
        "//patient/pname",
        "//patient[pname='Betty']/SSN",
        "//treat/doctor",
        "//insurance//@coverage",
        "//patient/*",
        "//patient[age>36]/pname",
        "/hospital/patient/age",
        "//unicorn",
    ],
    "xmark": [
        "//person/name",
        "//auction/itemref",
        "//person/address/street",
        "//open_auctions//current",
    ],
    "nasa": [
        "//dataset/altname",
        "//author/last",
        "//distribution/publisher",
        "//dataset/@subject",
    ],
}


def _host(doc, scs, backend, **kwargs):
    return SecureXMLSystem.host(
        doc, scs, scheme="opt", backend=backend, **kwargs
    )


class TestBackendKnob:
    def test_none_defers_to_env(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None) == "object"
        monkeypatch.setenv(BACKEND_ENV, "columnar")
        assert resolve_backend(None) == "columnar"

    def test_strings_are_case_insensitive(self):
        assert resolve_backend("Columnar") == "columnar"
        assert resolve_backend(" OBJECT ") == "object"

    def test_unknown_string_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("vertical")

    def test_non_string_raises_type_error(self):
        with pytest.raises(TypeError, match="backend must be"):
            resolve_backend(42)

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "sideways")
        with pytest.raises(ValueError, match=BACKEND_ENV):
            backend_from_env()

    def test_env_reaches_the_server(
        self, monkeypatch, healthcare_doc, healthcare_scs
    ):
        monkeypatch.setenv(BACKEND_ENV, "columnar")
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        assert system.backend == "columnar"
        assert system.server.backend == "columnar"

    def test_explicit_argument_beats_env(
        self, monkeypatch, healthcare_doc, healthcare_scs
    ):
        monkeypatch.setenv(BACKEND_ENV, "columnar")
        system = _host(healthcare_doc, healthcare_scs, "object")
        assert system.backend == "object"


class TestPlaneGeometry:
    """from_index planes are a faithful flat view of the object rows."""

    @pytest.fixture
    def hosted(self, healthcare_doc, healthcare_scs):
        return _host(healthcare_doc, healthcare_scs, "object").hosted

    def test_global_order_is_entry_order(self, hosted):
        index = hosted.structural_index
        planes = ColumnarPlanes.from_index(index)
        entries = index.all_entries()
        assert planes.entry_count == len(entries)
        for position, entry in enumerate(entries):
            assert planes.lows[position] == entry.interval.low
            assert planes.highs[position] == entry.interval.high
            assert planes.key_of(position) == entry.key
            assert planes.block_of(position) == entry.block_id
            assert planes.members_of(position) == entry.member_ids
            assert planes.value_of(position) == entry.plaintext_value

    def test_parent_plane_mirrors_parent_pointers(self, hosted):
        index = hosted.structural_index
        planes = ColumnarPlanes.from_index(index)
        entries = index.all_entries()
        position_of = {id(e): i for i, e in enumerate(entries)}
        for position, entry in enumerate(entries):
            parent = planes.parents[position]
            if entry.parent is None:
                assert parent == -1
            else:
                assert parent == position_of[id(entry.parent)]

    def test_tag_slices_cover_per_key_lists_in_low_order(self, hosted):
        index = hosted.structural_index
        planes = ColumnarPlanes.from_index(index)
        for key, rows in index.table.items():
            ids, lows = planes.tag_slice(key)
            assert len(ids) == len(rows)
            assert list(lows) == sorted(r.interval.low for r in rows)
            assert [planes.key_of(i) for i in ids] == [key] * len(rows)

    def test_block_table_round_trips(self, hosted):
        index = hosted.structural_index
        planes = ColumnarPlanes.from_index(index)
        assert planes.block_table_dict() == index.block_table

    def test_group_cutpoints_match_object_path(self, hosted):
        index = hosted.structural_index
        planes = ColumnarPlanes.from_index(index)
        for groups in (1, 2, 4, 8, 16):
            assert planes.group_cutpoints(groups) == index.group_cutpoints(
                groups
            )

    def test_hosted_node_lows_match(self, hosted):
        index = hosted.structural_index
        planes = ColumnarPlanes.from_index(index)
        expected = {
            e.hosted_node.node_id: e.interval.low
            for e in index.all_entries()
            if e.hosted_node is not None
        }
        assert planes.hosted_node_lows() == expected

    def test_placement_is_backend_invariant(self, hosted):
        config = ClusterConfig(shards=4, replicas=2, seed=3)
        object_map = build_placement(hosted, config, backend="object")
        columnar_map = build_placement(hosted, config, backend="columnar")
        assert object_map.signature() == columnar_map.signature()
        assert object_map.groups == columnar_map.groups


class TestBulkLoad:
    """from_records (the storage stream) agrees with from_index per key."""

    @pytest.fixture
    def index(self, healthcare_doc, healthcare_scs):
        return _host(
            healthcare_doc, healthcare_scs, "object"
        ).hosted.structural_index

    def _records(self, index):
        """The exact ``server_meta['dsi']`` schema storage writes."""
        entries = index.all_entries()
        entry_index = {id(e): i for i, e in enumerate(entries)}
        return [
            {
                "key": e.key,
                "low": e.interval.low,
                "high": e.interval.high,
                "members": list(e.member_ids),
                "block": e.block_id,
                "parent": entry_index.get(id(e.parent)),
                "value": e.plaintext_value,
                "hosted_id": (
                    e.hosted_node.node_id
                    if e.hosted_node is not None
                    else None
                ),
            }
            for e in entries
        ]

    def test_per_key_equivalence_with_from_index(self, index):
        built = ColumnarPlanes.from_index(index)
        loaded = ColumnarPlanes.from_records(
            self._records(index),
            {
                block_id: (interval.low, interval.high)
                for block_id, interval in index.block_table.items()
            },
        )
        assert loaded.entry_count == built.entry_count
        assert list(loaded.lows) == list(built.lows)
        assert list(loaded.highs) == list(built.highs)
        assert list(loaded.parents) == list(built.parents)
        # Key *numbering* may differ (first-appearance vs table order);
        # per-key slice contents — what byte identity depends on — must not.
        assert set(loaded.keys) == set(built.keys)
        for key in built.keys:
            built_ids, built_lows = built.tag_slice(key)
            loaded_ids, loaded_lows = loaded.tag_slice(key)
            assert list(loaded_ids) == list(built_ids)
            assert list(loaded_lows) == list(built_lows)
        for position in range(built.entry_count):
            assert loaded.key_of(position) == built.key_of(position)
            assert loaded.members_of(position) == built.members_of(position)
            assert loaded.value_of(position) == built.value_of(position)
        assert loaded.block_table_dict() == built.block_table_dict()

    def test_hydrate_entries_rebuilds_the_object_rows(self, index):
        planes = ColumnarPlanes.from_index(index)
        node_for = {
            e.hosted_node.node_id: e.hosted_node
            for e in index.all_entries()
            if e.hosted_node is not None
        }
        entries, table = planes.hydrate_entries(node_for.get)
        originals = index.all_entries()
        assert len(entries) == len(originals)
        for rebuilt, original in zip(entries, originals):
            assert rebuilt.key == original.key
            assert rebuilt.interval == original.interval
            assert rebuilt.member_ids == original.member_ids
            assert rebuilt.block_id == original.block_id
            assert rebuilt.plaintext_value == original.plaintext_value
            assert rebuilt.hosted_node is original.hosted_node
        assert set(table) == set(index.table)


class TestSweepKernels:
    """The galloping primitives against their bisect/brute references."""

    def test_gallop_right_matches_bisect(self):
        rng = random.Random(7)
        for _ in range(50):
            lows = sorted(rng.uniform(0, 1) for _ in range(rng.randint(0, 40)))
            target = rng.uniform(-0.1, 1.1)
            start = rng.randint(0, max(0, len(lows)))
            expected = max(start, bisect_right(lows, target, start))
            assert _gallop_right(lows, target, start) == expected

    def test_gallop_right_edges(self):
        assert _gallop_right([], 0.5, 0) == 0
        assert _gallop_right([0.1, 0.2], 0.05, 0) == 0
        assert _gallop_right([0.1, 0.2], 0.3, 0) == 2
        assert _gallop_right([0.1, 0.2], 0.15, 2) == 2

    def test_sweep_descendant_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 30)
            spans = []
            for _ in range(n):
                low = rng.uniform(0, 1)
                spans.append((low, low + rng.uniform(0.001, 0.5)))
            lows = [s[0] for s in spans]
            highs = [s[1] for s in spans]
            match_lows = sorted(
                rng.uniform(0, 1.5) for _ in range(rng.randint(0, 20))
            )
            # Candidates arrive as concatenated per-key low-sorted runs.
            split = rng.randint(0, n)
            ids = sorted(range(split), key=lambda i: lows[i]) + sorted(
                range(split, n), key=lambda i: lows[i]
            )
            survivors = sweep_descendant(ids, lows, highs, match_lows)
            expected = [
                i
                for i in ids
                if any(lows[i] < m < highs[i] for m in match_lows)
            ]
            assert survivors == expected


class TestByteIdentity:
    """Same answer bytes on every workload × cluster shape."""

    def _expected(self, doc, scs, queries):
        system = _host(doc, scs, "object")
        return [
            (system.query(q).canonical(), dict(
                system.last_trace.candidate_counts
            ))
            for q in queries
        ]

    def _check(self, doc, scs, queries, expected, **kwargs):
        system = _host(doc, scs, "columnar", **kwargs)
        for query, (answer, candidates) in zip(queries, expected):
            result = system.query(query)
            assert result.canonical() == answer, (query, kwargs)
            assert (
                dict(system.last_trace.candidate_counts) == candidates
            ), (query, kwargs)

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_QUERIES))
    def test_serial_and_cluster_agree(self, workload, request):
        if workload == "healthcare":
            doc = request.getfixturevalue("healthcare_doc")
            scs = request.getfixturevalue("healthcare_scs")
        else:
            doc = request.getfixturevalue(f"{workload}_doc")
            scs = request.getfixturevalue(f"{workload}_scs")
        queries = WORKLOAD_QUERIES[workload]
        expected = self._expected(doc, scs, queries)
        self._check(doc, scs, queries, expected)
        self._check(
            doc, scs, queries, expected,
            cluster=ClusterConfig(shards=1, replicas=1),
        )
        self._check(
            doc, scs, queries, expected,
            cluster=ClusterConfig(shards=4, replicas=2),
        )


class TestFaultSweepIdentity:
    """Under a seeded faulty wire both backends answer exactly or fail
    with the same typed error — the backend never changes wire bytes."""

    QUERIES = (
        "//patient[pname='Betty']/SSN",
        "//treat/doctor",
        "//patient[age>36]/pname",
    )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_faults_preserve_identity(
        self, seed, healthcare_doc, healthcare_scs
    ):
        rates = {"drop": 0.2, "corrupt": 0.2}
        outcomes = {}
        for backend in ("object", "columnar"):
            policy = FaultPolicy.symmetric(seed=seed, **rates)
            system = SecureXMLSystem.host(
                healthcare_doc,
                healthcare_scs,
                scheme="opt",
                backend=backend,
                channel=FaultyChannel(policy=policy),
            )
            rows = []
            for query in self.QUERIES:
                try:
                    rows.append(("ok", system.query(query).canonical()))
                except QueryFailedError:
                    rows.append(("failed", None))
            outcomes[backend] = rows
        # Identical fault schedule + identical wire bytes ⇒ identical
        # per-query outcomes, successes and typed failures alike.
        assert outcomes["object"] == outcomes["columnar"]


class TestStorageRoundtrip:
    @pytest.fixture
    def saved(self, tmp_path, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt", master_key=MASTER
        )
        directory = str(tmp_path / "hosting")
        save_system(system, directory)
        return directory, system

    def test_columnar_load_is_lazy(self, saved):
        directory, original = saved
        loaded = load_system(directory, MASTER, backend="columnar")
        index = loaded.hosted.structural_index
        assert isinstance(index, LazyStructuralIndex)
        assert not index.hydrated
        for query in WORKLOAD_QUERIES["healthcare"]:
            assert (
                loaded.query(query).canonical()
                == original.query(query).canonical()
            )
        # The whole probe set ran off the mmapped planes.
        assert not index.hydrated

    def test_update_hydrates_and_stays_correct(self, saved):
        directory, _ = saved
        loaded = load_system(directory, MASTER, backend="columnar")
        index = loaded.hosted.structural_index
        loaded.update_value("//patient[pname='Betty']/SSN", "555555")
        assert index.hydrated
        assert loaded.query("//patient[pname='Betty']/SSN").values() == [
            "555555"
        ]

    def test_hydrated_system_resaves_and_reloads(self, saved, tmp_path):
        directory, _ = saved
        loaded = load_system(directory, MASTER, backend="columnar")
        loaded.update_value("//patient[pname='Betty']/SSN", "999999")
        second = str(tmp_path / "second")
        save_system(loaded, second)
        again = load_system(second, MASTER, backend="columnar")
        assert again.query("//patient[pname='Betty']/SSN").values() == [
            "999999"
        ]

    def test_object_load_ignores_column_files(self, saved):
        directory, original = saved
        loaded = load_system(directory, MASTER, backend="object")
        assert not isinstance(
            loaded.hosted.structural_index, LazyStructuralIndex
        )
        probe = "//patient/pname"
        assert (
            loaded.query(probe).canonical()
            == original.query(probe).canonical()
        )


class TestColstoreFormat:
    @pytest.fixture
    def planes(self, healthcare_doc, healthcare_scs):
        index = _host(
            healthcare_doc, healthcare_scs, "object"
        ).hosted.structural_index
        return ColumnarPlanes.from_index(index)

    def test_pack_unpack_round_trip(self, planes):
        manifest, blob = pack_columns(planes)
        assert manifest["version"] == COLSTORE_VERSION
        assert manifest["entry_count"] == planes.entry_count
        restored = unpack_columns(manifest, blob)
        assert list(restored.lows) == list(planes.lows)
        assert list(restored.highs) == list(planes.highs)
        assert restored.tag_slices == planes.tag_slices
        assert restored.block_table_dict() == planes.block_table_dict()

    def test_columns_are_eight_byte_aligned(self, planes):
        manifest, _ = pack_columns(planes)
        for name, column in manifest["columns"].items():
            assert column["offset"] % 8 == 0, name

    def test_future_version_rejected(self, planes):
        manifest, blob = pack_columns(planes)
        manifest["version"] = COLSTORE_VERSION + 1
        with pytest.raises(ColstoreError, match="version"):
            unpack_columns(manifest, blob)

    def test_truncated_blob_rejected(self, planes):
        manifest, blob = pack_columns(planes)
        with pytest.raises(ColstoreError):
            unpack_columns(manifest, blob[: len(blob) // 2])

    def test_foreign_endianness_falls_back_to_byteswap(self, planes):
        import sys

        manifest, blob = pack_columns(planes)
        manifest = dict(manifest)
        manifest["byteorder"] = (
            "big" if sys.byteorder == "little" else "little"
        )
        swapped = bytearray(blob)
        for column in manifest["columns"].values():
            typecode = column["typecode"]
            if typecode is None:
                continue
            width = {"d": 8, "q": 8, "b": 1}[typecode]
            if width == 1:
                continue
            start, count = column["offset"], column["count"]
            for i in range(count):
                cell = slice(start + i * width, start + (i + 1) * width)
                swapped[cell] = bytes(reversed(swapped[cell]))
        restored = unpack_columns(manifest, bytes(swapped))
        assert list(restored.lows) == list(planes.lows)
        assert list(restored.parents) == list(planes.parents)

    def test_load_columns_uses_mmap(self, planes, tmp_path):
        import mmap

        directory = str(tmp_path)
        manifest, blob = pack_columns(planes)
        with open(os.path.join(directory, "columns.json"), "w") as f:
            json.dump(manifest, f)
        with open(os.path.join(directory, "columns.bin"), "wb") as f:
            f.write(blob)
        loaded = load_columns(directory)
        assert isinstance(loaded.source, mmap.mmap)
        assert list(loaded.lows) == list(planes.lows)

    def test_load_columns_bad_json_is_colstore_error(self, planes, tmp_path):
        directory = str(tmp_path)
        manifest, blob = pack_columns(planes)
        with open(os.path.join(directory, "columns.json"), "w") as f:
            f.write("{not json")
        with open(os.path.join(directory, "columns.bin"), "wb") as f:
            f.write(blob)
        with pytest.raises(ColstoreError):
            load_columns(directory)


class TestIntervalUnderflowDiagnostic:
    def test_deep_chain_reports_depth_and_remedy(self):
        from repro.xmldb.node import Document, Element

        root = Element("chain")
        cursor = root
        for level in range(120):
            child = Element(f"level{level}")
            cursor.append(child)
            cursor = child
        document = Document(root)
        weights = DeterministicRandom(b"w" * 16, "dsi")
        with pytest.raises(ValueError) as excinfo:
            assign_intervals(document, weights)
        message = str(excinfo.value)
        assert "underflowed" in message
        assert "depth" in message
        assert "fanout" in message
        assert "bulk-load" in message
        assert "regroup" in message

    def test_shallow_document_is_fine(self, healthcare_doc):
        weights = DeterministicRandom(b"w" * 16, "dsi")
        intervals = assign_intervals(healthcare_doc, weights)
        assert intervals
