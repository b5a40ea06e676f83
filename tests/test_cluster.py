"""The sharded cluster: placement, byte-identity, failover, update routing.

The contract under test is the coordinator's core promise: at any
(shards, replicas) the scatter–gather answer — fragments, counts, bytes —
is **byte-identical** to the single-server path, updates keep it that
way while only bumping the shards they can reach, and a failing replica
either fails over to an exact answer or surfaces the typed
:class:`ClusterDegradedError`; a wrong answer is never an option.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterDegradedError,
    build_placement,
)
from repro.cluster.placement import blocks_of_shard
from repro.core.system import QueryFailedError, SecureXMLSystem
from repro.netsim.faults import FaultPolicy
from repro.perf import counters
from repro.workloads.queries import QueryWorkload
from repro.xpath.compiler import UnsupportedQuery

#: the acceptance grid: monolithic-equivalent baseline, plain sharding,
#: sharding with replication
SWEEP = (
    ClusterConfig(shards=1, replicas=1),
    ClusterConfig(shards=2, replicas=1),
    ClusterConfig(shards=4, replicas=2),
)

#: span name → trace attribute, as pinned by tests/test_obs.py
STAGES = (
    ("translate", "translate_client_s"),
    ("server", "server_s"),
    ("transfer", "transfer_s"),
    ("decrypt", "decrypt_client_s"),
    ("postprocess", "postprocess_client_s"),
    ("backoff", "backoff_s"),
)


def workload_queries(document, constraints, per_class: int = 3) -> list[str]:
    """Server-evaluable queries drawn from the shared generator."""
    probe = SecureXMLSystem.host(document, constraints, scheme="opt")
    queries: list[str] = []
    for batch in QueryWorkload(
        document, seed=23, per_class=per_class
    ).by_class().values():
        for query in batch:
            try:
                probe.client.translate(query)
            except UnsupportedQuery:
                continue
            if query not in queries:
                queries.append(query)
    assert queries
    return queries


# ----------------------------------------------------------------------
# Placement: deterministic, seed-stable, a true partition
# ----------------------------------------------------------------------
class TestPlacement:
    @pytest.fixture
    def hosted(self, healthcare_doc, healthcare_scs):
        return SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        ).hosted

    def test_same_seed_same_placement(self, hosted):
        config = ClusterConfig(shards=4, seed=7)
        first = build_placement(hosted, config)
        second = build_placement(hosted, config)
        assert first.signature() == second.signature()

    def test_seed_changes_assignment(self, hosted):
        base = build_placement(hosted, ClusterConfig(shards=4, seed=0))
        shuffled = build_placement(hosted, ClusterConfig(shards=4, seed=1))
        assert base.signature() != shuffled.signature()

    def test_every_entry_in_exactly_one_group(self, hosted):
        placement = build_placement(hosted, ClusterConfig(shards=4))
        total = sum(group.entry_count for group in placement.groups)
        assert total == len(hosted.structural_index.entries)

    def test_blocks_partition_across_shards(self, hosted):
        config = ClusterConfig(shards=4)
        placement = build_placement(hosted, config)
        owned = [
            blocks_of_shard(hosted, placement, shard)
            for shard in range(config.shards)
        ]
        union: set[int] = set()
        for block_ids in owned:
            assert not (union & block_ids), "a block owned by two shards"
            union |= block_ids
        assert union == set(hosted.structural_index.block_table)

    def test_groups_of_shard_cover_all_groups(self, hosted):
        config = ClusterConfig(shards=3)
        placement = build_placement(hosted, config)
        seen = [
            group.group_id
            for shard in range(config.shards)
            for group in placement.groups_of_shard(shard)
        ]
        assert sorted(seen) == list(range(placement.group_count()))

    def test_placement_stable_across_inserts(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            cluster=ClusterConfig(shards=4),
        )
        placement = system.coordinator.placement
        before = placement.signature()
        system.insert_element(
            "//patient[pname='Matt']", "phone", "555-1234"
        )
        assert placement.signature() == before
        # Every post-insert entry — including the gap-drawn one — still
        # resolves to a live group.
        for entry in system.hosted.structural_index.entries:
            group = placement.group_of_low(entry.interval.low)
            assert 0 <= group < placement.group_count()


# ----------------------------------------------------------------------
# Byte-identity across the (shards, replicas) sweep, three workloads
# ----------------------------------------------------------------------
class TestByteIdentity:
    def assert_identical(self, document, constraints, queries):
        monolithic = SecureXMLSystem.host(
            document, constraints, scheme="opt", cluster=False
        )
        reference = [
            (monolithic.query(q).canonical(),
             monolithic.last_trace.blocks_returned)
            for q in queries
        ]
        for config in SWEEP:
            system = SecureXMLSystem.host(
                document, constraints, scheme="opt", cluster=config
            )
            for query, (answer, blocks) in zip(queries, reference):
                got = system.query(query)
                assert got.canonical() == answer, (config, query)
                assert system.last_trace.blocks_returned == blocks
                assert system.last_trace.cluster_shards == config.shards
            # Warm repeat: caches serve, bytes must not change.
            for query, (answer, _) in zip(queries, reference):
                assert system.query(query).canonical() == answer

    def test_healthcare(self, healthcare_doc, healthcare_scs):
        queries = ["//patient/SSN", "//pname", "//patient/treat/disease"]
        self.assert_identical(healthcare_doc, healthcare_scs, queries)

    def test_xmark(self, xmark_doc, xmark_scs):
        self.assert_identical(
            xmark_doc, xmark_scs, workload_queries(xmark_doc, xmark_scs)
        )

    def test_nasa(self, nasa_doc, nasa_scs):
        self.assert_identical(
            nasa_doc, nasa_scs, workload_queries(nasa_doc, nasa_scs)
        )

    def test_naive_path_matches(self, healthcare_doc, healthcare_scs):
        monolithic = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt", cluster=False
        )
        clustered = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            cluster=ClusterConfig(shards=4, replicas=2),
        )
        query = "//patient/SSN"
        assert (
            clustered.naive_query(query).canonical()
            == monolithic.naive_query(query).canonical()
        )

    def test_spans_reconcile_with_trace(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            cluster=ClusterConfig(shards=4, replicas=2),
        )
        for query in ("//patient/SSN", "//pname"):
            system.query(query)
            trace = system.last_trace
            root = trace.span
            assert root is not None and root.duration_s is not None
            for span_name, attr in STAGES:
                assert root.total(span_name) == pytest.approx(
                    getattr(trace, attr), abs=0.001
                ), span_name
            assert root.total("gather") >= 0.0
            scatter = root.find("scatter")
            assert scatter is not None
            assert scatter.annotations["shards"] == 4


# ----------------------------------------------------------------------
# Failover: exact answer or typed error, never something in between
# ----------------------------------------------------------------------
class TestFailover:
    QUERIES = ("//patient/SSN", "//pname", "//patient/treat/disease")

    def host(self, document, constraints, config, faults):
        return SecureXMLSystem.host(
            document, constraints, scheme="opt",
            cluster=config, cluster_faults=faults,
        )

    def test_dead_primary_fails_over_exactly(
        self, healthcare_doc, healthcare_scs
    ):
        reference = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt", cluster=False
        )

        def faults(shard_id, replica_id):
            if replica_id == 0:
                return FaultPolicy.symmetric(seed=shard_id, drop=1.0)
            return None

        system = self.host(
            healthcare_doc, healthcare_scs,
            ClusterConfig(shards=2, replicas=2), faults,
        )
        for query in self.QUERIES:
            assert (
                system.query(query).canonical()
                == reference.query(query).canonical()
            )
        assert system.last_trace.cluster_failovers > 0

    @pytest.mark.parametrize("rate", [0.2, 0.35])
    def test_seeded_fault_sweep_exact_or_typed(
        self, healthcare_doc, healthcare_scs, rate
    ):
        """Lossy replicas on *every* shard: answers stay exact or typed."""
        reference = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt", cluster=False
        )

        def faults(shard_id, replica_id, _rate=rate):
            return FaultPolicy.symmetric(
                seed=31 * shard_id + replica_id, drop=_rate, corrupt=_rate
            )

        system = self.host(
            healthcare_doc, healthcare_scs,
            ClusterConfig(shards=4, replicas=2), faults,
        )
        answered = 0
        for query in self.QUERIES * 3:
            try:
                answer = system.query(query)
            except QueryFailedError:
                continue
            answered += 1
            assert (
                answer.canonical() == reference.query(query).canonical()
            )
        assert answered > 0, "every exchange failed at a survivable rate"

    def test_all_replicas_dead_raises_typed_error(
        self, healthcare_doc, healthcare_scs
    ):
        def faults(shard_id, replica_id):
            return FaultPolicy.symmetric(
                seed=shard_id + replica_id, drop=1.0
            )

        system = self.host(
            healthcare_doc, healthcare_scs,
            ClusterConfig(shards=2, replicas=2), faults,
        )
        with pytest.raises(ClusterDegradedError) as excinfo:
            system.query("//patient/SSN")
        assert isinstance(excinfo.value, QueryFailedError)

    def test_surviving_replica_per_shard_suffices(
        self, healthcare_doc, healthcare_scs
    ):
        """≥1 clean replica per shard → exact answers at a harsh rate."""
        reference = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt", cluster=False
        )

        def faults(shard_id, replica_id):
            if replica_id == 1:
                return None  # the survivor
            return FaultPolicy.symmetric(seed=shard_id, drop=0.8)

        system = self.host(
            healthcare_doc, healthcare_scs,
            ClusterConfig(shards=4, replicas=2), faults,
        )
        for query in self.QUERIES:
            assert (
                system.query(query).canonical()
                == reference.query(query).canonical()
            )


# ----------------------------------------------------------------------
# Updates: only what a write can reach re-serializes, answers stay fresh
# ----------------------------------------------------------------------
class TestUpdateRouting:
    def warm(self, system, queries) -> None:
        for query in queries:
            system.query(query)

    def test_narrow_update_leaves_other_roots_fragments_cached_on_every_shard(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            cluster=ClusterConfig(shards=4, replicas=2),
        )
        hosted = system.hosted
        servers = [
            replica.server
            for replica_set in system.coordinator.replica_sets
            for replica in replica_set.replicas
        ]
        queries = ("//patient/SSN", "//pname", "//patient")
        self.warm(system, queries)
        cached = [set(server._fragment_cache.live()) for server in servers]
        assert sum(map(len, cached)) > 4
        system.update_value("//patient[pname='Matt']/pname", "Matthew")
        touched = set(hosted.subtree_stamps)
        assert touched and any(ids & touched for ids in cached)
        # Each shard keeps exactly what the write cannot reach ...
        for server, ids in zip(servers, cached):
            assert set(server._fragment_cache.live()) == ids - touched
        # ... and the next round re-serializes only the rest.
        before = counters.snapshot()
        self.warm(system, queries)
        delta = counters.delta_since(before)
        assert delta["fragment_cache_hits"] > 0
        assert 0 < delta["fragment_cache_misses"] <= len(touched)

    def test_updates_stay_byte_identical(
        self, healthcare_doc, healthcare_scs
    ):
        monolithic = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt", cluster=False
        )
        clustered = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            cluster=ClusterConfig(shards=4, replicas=2),
        )
        queries = ("//patient/SSN", "//pname", "//phone")
        for system in (monolithic, clustered):
            self.warm(system, queries)
            system.insert_element(
                "//patient[pname='Matt']", "phone", "555-1234"
            )
            system.update_value("//patient[pname='Matt']/pname", "Matthew")
        for query in queries + ("//patient[pname='Matthew']/pname",):
            assert (
                clustered.query(query).canonical()
                == monolithic.query(query).canonical()
            ), query
        for system in (monolithic, clustered):
            system.delete_element("//patient[pname='Matthew']/phone")
        for query in queries:
            assert (
                clustered.query(query).canonical()
                == monolithic.query(query).canonical()
            ), query


# ----------------------------------------------------------------------
# System knobs: coerce table and the env fallback
# ----------------------------------------------------------------------
class TestConfigKnobs:
    @pytest.mark.parametrize(
        ("value", "expected_shards"),
        [
            (False, None),
            (True, 2),
            (0, None),
            (1, None),
            (3, 3),
            (ClusterConfig(shards=1), 1),
            (ClusterConfig(shards=5, replicas=2), 5),
        ],
    )
    def test_coerce_table(self, value, expected_shards):
        config = ClusterConfig.coerce(value)
        if expected_shards is None:
            assert config is None
        else:
            assert config is not None and config.shards == expected_shards

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        monkeypatch.setenv("REPRO_REPLICAS", "2")
        config = ClusterConfig.coerce(None)
        assert config == ClusterConfig(shards=4, replicas=2)
        monkeypatch.setenv("REPRO_SHARDS", "1")
        assert ClusterConfig.coerce(None) is None

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(shards=0)
        with pytest.raises(ValueError):
            ClusterConfig(shards=2, replicas=0)
        with pytest.raises(TypeError):
            ClusterConfig.coerce("four")

    def test_legacy_path_has_no_coordinator(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, cluster=False
        )
        assert system.coordinator is None
        trace_query = system.query("//patient/SSN")
        assert trace_query is not None
        assert system.last_trace.cluster_shards == 0
