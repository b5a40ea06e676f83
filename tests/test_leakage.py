"""Access-pattern leakage tier: traces, countermeasures, accounting.

Four invariant families:

* **Policy plumbing** — every spelling of ``leakage=`` (env var, CLI
  string, dataclass, shared context) lands on the same policy, and bad
  specs fail loudly.
* **Block accounting** (the bugfix) — ``blocks_shipped`` equals the
  number of encrypted-block markers actually present in the shipped
  fragments, on the fast path and the naive path.
* **Trace determinism** — the same seed produces byte-identical fetch
  traces across runs.
* **Byte-identity & hygiene** — the full countermeasure set changes no
  answer byte on any path and pollutes no cache counter.
"""

import pytest

from repro.core import client as client_module
from repro.core.leakage import (
    LeakageContext,
    LeakagePolicy,
    ObservedTrace,
    leakage_stream,
)
from repro.core.system import SecureXMLSystem
from repro.perf import counters
from repro.security.leakage import TraceClusteringAttack, run_leakage_game
from repro.serving import ServingServer, remote_system
from repro.workloads.axes import AxisWorkload
from repro.xmldb.node import iter_encrypted_blocks
from repro.xmldb.parser import ENCRYPTED_DATA_TAG

QUERIES = (
    "//patient",
    "//patient[.//insurance//@coverage>=10000]//SSN",
    "//treat[disease='leukemia']/doctor",
    "//insurance/policy#",
    "//SSN",
)

FULL = LeakagePolicy.full(seed=3)

#: Axis-engine plans: multi-node ship sets, reverse/order joins,
#: positional completeness, a residual plan.  The leakage gates must
#: hold for these exactly as for the downward fragment — the new axes
#: reuse the same sealed-fragment wire path, so pad/decoy apply
#: unchanged.
AXIS_QUERIES = (
    "//age/ancestor::patient",
    "//treat/following-sibling::insurance",
    "//disease/preceding::pname",
    "//pname/..",
    "/hospital/patient[1]/pname",
    "//patient/descendant-or-self::patient",
    "//age/namespace::*",
)


def host(doc, scs, **kwargs):
    return SecureXMLSystem.host(doc, scs, scheme="opt", **kwargs)


# ----------------------------------------------------------------------
# Policy parsing and coercion
# ----------------------------------------------------------------------
class TestPolicy:
    def test_full_enables_everything(self):
        policy = LeakagePolicy.full()
        assert policy.masks_fetches and policy.pad_to > 1 and policy.decoys

    def test_default_is_record_only(self):
        policy = LeakagePolicy()
        assert not policy.masks_fetches

    @pytest.mark.parametrize("spec", ["", "off", "record"])
    def test_parse_record_only(self, spec):
        assert LeakagePolicy.parse(spec) == LeakagePolicy()

    def test_parse_full(self):
        assert LeakagePolicy.parse("full") == LeakagePolicy.full()

    def test_parse_knobs(self):
        policy = LeakagePolicy.parse("pad=4, decoys=9, seed=17")
        assert policy == LeakagePolicy(pad_to=4, decoys=9, seed=17)

    @pytest.mark.parametrize(
        "spec", ["pad", "pad=x", "bogus=1", "pad=8 decoys=2"]
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            LeakagePolicy.parse(spec)

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            LeakagePolicy(pad_to=-1)
        with pytest.raises(ValueError):
            LeakagePolicy(decoys=-1)

    def test_coerce_none_without_env_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEAKAGE", raising=False)
        assert LeakageContext.coerce(None) is None

    def test_coerce_none_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEAKAGE", "pad=8,decoys=2")
        context = LeakageContext.coerce(None)
        assert context.policy == LeakagePolicy(pad_to=8, decoys=2)

    def test_coerce_bools_and_passthrough(self):
        assert LeakageContext.coerce(False) is None
        assert LeakageContext.coerce(True).policy == LeakagePolicy.full()
        context = LeakageContext(FULL)
        assert LeakageContext.coerce(context) is context
        assert LeakageContext.coerce(FULL).policy is FULL
        assert LeakageContext.coerce("full").policy == LeakagePolicy.full()

    def test_coerce_rejects_garbage(self):
        with pytest.raises(TypeError):
            LeakageContext.coerce(3.14)

    def test_stream_is_seed_and_label_keyed(self):
        first = [leakage_stream(5, "server").randint(0, 99)
                 for _ in range(8)]
        again = [leakage_stream(5, "server").randint(0, 99)
                 for _ in range(8)]
        other = [leakage_stream(6, "server").randint(0, 99)
                 for _ in range(8)]
        assert first == again
        assert first != other


# ----------------------------------------------------------------------
# blocks_shipped accounting (the bugfix)
# ----------------------------------------------------------------------
def marker_count(response):
    """Ground truth: encrypted-block markers in the shipped XML."""
    return sum(
        fragment.xml.count(f"<{ENCRYPTED_DATA_TAG} ")
        for fragment in response.fragments
    )


class TestBlockAccounting:
    def test_blocks_shipped_matches_shipped_markers(
        self, healthcare_doc, healthcare_scs
    ):
        system = host(healthcare_doc, healthcare_scs)
        for query in QUERIES:
            translated = system.client.translate(query)
            response = system.server.answer(translated)
            assert response.blocks_shipped == marker_count(response), query

    def test_nested_blocks_counted(self, healthcare_doc, healthcare_scs):
        # //patient ships plaintext patient roots whose subtrees hold the
        # encrypted blocks; the pre-fix counter only saw roots that *were*
        # blocks and reported 0 here.
        system = host(healthcare_doc, healthcare_scs)
        response = system.server.answer(system.client.translate("//patient"))
        assert response.blocks_shipped == marker_count(response) > 0

    def test_naive_path_counts_whole_store(
        self, healthcare_doc, healthcare_scs
    ):
        system = host(healthcare_doc, healthcare_scs)
        response = system.server.ship_all()
        assert response.blocks_shipped == marker_count(response)
        # Top-level placeholders alone undercount whenever blocks nest.
        assert response.blocks_shipped >= len(system.hosted.blocks) or (
            response.blocks_shipped == marker_count(response)
        )


class TestOneDefinitionOfABlock:
    """``blocks_shipped`` is counted in the fragment text; the tree walk
    over the same roots, the trace recorder and the client's scan must
    all see exactly those blocks."""

    @pytest.mark.parametrize("dataset", ["healthcare", "xmark", "nasa"])
    def test_text_count_tree_walk_trace_and_client_scan_agree(
        self, dataset, request
    ):
        document = request.getfixturevalue(f"{dataset}_doc")
        constraints = request.getfixturevalue(f"{dataset}_scs")
        system = host(document, constraints, leakage=LeakagePolicy())
        server, recorder = system.server, system.leakage.recorder
        shipped = 0
        for query in AxisWorkload(document).queries():
            translated = system.client.translate(query)
            roots = server._fragment_roots(server._match(translated).ship_entries)
            walked = [
                block.block_id
                for root in roots
                for block in iter_encrypted_blocks(root)
            ]
            for _ in ("serialized", "from the fragment cache"):
                response = server.answer(translated)
                scanned = [
                    int(block_id)
                    for fragment in response.fragments
                    for block_id, _ in client_module._BLOCK_RE.findall(fragment.xml)
                ]
                assert scanned == walked, query
                assert recorder.traces()[-1].blocks == tuple(walked), query
                assert response.blocks_shipped == len(walked), query
                assert response.blocks_shipped == marker_count(response), query
            shipped += len(walked)
        assert shipped > 0
        whole = server.ship_all()
        assert whole.blocks_shipped == len(
            list(iter_encrypted_blocks(system.hosted.hosted_root))
        ) == len(system.hosted.blocks)


# ----------------------------------------------------------------------
# Trace determinism
# ----------------------------------------------------------------------
def recorded(doc, scs, **kwargs):
    """Host with the full policy, run QUERIES cold, return trace bytes."""
    policy = kwargs.pop("policy", FULL)
    system = host(doc, scs, leakage=policy, **kwargs)
    for query in QUERIES:
        system.flush_caches()
        system.query(query)
    return system.leakage.recorder.encode()


class TestTraceDeterminism:
    def test_run_to_run_identical(self, healthcare_doc, healthcare_scs):
        first = recorded(healthcare_doc, healthcare_scs)
        second = recorded(healthcare_doc, healthcare_scs)
        assert first == second and first

    def test_different_seed_differs(self, healthcare_doc, healthcare_scs):
        first = recorded(healthcare_doc, healthcare_scs,
                         policy=LeakagePolicy.full(seed=1))
        second = recorded(healthcare_doc, healthcare_scs,
                          policy=LeakagePolicy.full(seed=2))
        assert first != second

    def test_record_only_traces_are_real_fetches(
        self, healthcare_doc, healthcare_scs
    ):
        system = host(healthcare_doc, healthcare_scs,
                      leakage=LeakagePolicy())
        system.query("//patient")
        traces = system.leakage.recorder.traces()
        assert len(traces) == 1
        assert len(traces[0].blocks) == system.last_trace.blocks_returned

    def test_repeats_do_not_repeat_decoys(
        self, healthcare_doc, healthcare_scs
    ):
        # The draw stream advances across queries: an observer must
        # not be able to match repeated queries by identical decoy sets.
        system = host(healthcare_doc, healthcare_scs, leakage=FULL)
        for _ in range(2):
            system.flush_caches()
            system.query("//SSN")
        first, second = system.leakage.recorder.traces()
        assert first.blocks != second.blocks


# ----------------------------------------------------------------------
# Byte-identity under the full countermeasure set
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_answers_identical_in_process(
        self, healthcare_doc, healthcare_scs
    ):
        plain = host(healthcare_doc, healthcare_scs)
        protected = host(healthcare_doc, healthcare_scs, leakage=FULL)
        for query in QUERIES:
            assert (
                plain.query(query).canonical()
                == protected.query(query).canonical()
            ), query

    def test_answers_identical_over_live_sockets(
        self, healthcare_doc, healthcare_scs
    ):
        reference = host(healthcare_doc, healthcare_scs)
        local = host(healthcare_doc, healthcare_scs, leakage=FULL)
        server = ServingServer(max_inflight=8)
        server.register_tenant("t0", local)
        address = server.start()
        try:
            remote = remote_system(local, address, "t0")
            try:
                for query in QUERIES:
                    assert (
                        remote.query(query).canonical()
                        == reference.query(query).canonical()
                    ), query
            finally:
                remote.close()
        finally:
            server.stop()

    def test_serving_stats_surface_policy(
        self, healthcare_doc, healthcare_scs
    ):
        local = host(healthcare_doc, healthcare_scs, leakage=FULL)
        server = ServingServer(max_inflight=8)
        server.register_tenant("t0", local)
        address = server.start()
        try:
            remote = remote_system(local, address, "t0")
            try:
                remote.query(QUERIES[0])
                stats = remote._connection.stats()
                leakage = stats["leakage"]
                assert leakage["pad_to"] == FULL.pad_to
                assert leakage["decoys"] == FULL.decoys
                assert "shuffle" not in leakage
                assert leakage["traces"] >= 1
            finally:
                remote.close()
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Cache hygiene: cover traffic must not pollute cache accounting
# ----------------------------------------------------------------------
class TestCacheHygiene:
    def warm_deltas(self, doc, scs, **kwargs):
        system = host(doc, scs, **kwargs)
        for query in QUERIES:
            system.query(query)  # cold pass fills every cache
        before = counters.snapshot()
        for query in QUERIES:
            system.query(query)  # warm pass measured
        return counters.delta_since(before)

    def test_leakage_is_not_a_cache_layer(self):
        for layer in counters.cache_layers():
            assert "leakage" not in layer

    def test_warm_hit_rates_unchanged_by_policy(
        self, healthcare_doc, healthcare_scs
    ):
        plain = self.warm_deltas(healthcare_doc, healthcare_scs)
        protected = self.warm_deltas(
            healthcare_doc, healthcare_scs, leakage=FULL
        )
        cache_keys = [
            key for key in plain
            if any(layer in key for layer in counters.cache_layers())
        ]
        assert cache_keys  # the warm pass exercised real caches
        for key in cache_keys:
            assert plain[key] == protected.get(key, 0), key

    def test_cover_traffic_lands_in_dedicated_counters(
        self, healthcare_doc, healthcare_scs
    ):
        system = host(healthcare_doc, healthcare_scs, leakage=FULL)
        before = counters.snapshot()
        system.query("//SSN")
        delta = counters.delta_since(before)
        assert delta.get("leakage_decoy_fetches", 0) == FULL.decoys
        assert delta.get("leakage_extra_bytes", 0) > 0
        assert delta.get("leakage_traces_recorded", 0) == 1


# ----------------------------------------------------------------------
# Axis-heavy queries: same gates, new plans
# ----------------------------------------------------------------------
def recorded_axis(doc, scs, **kwargs):
    """Host with the full policy, run AXIS_QUERIES cold, return bytes."""
    system = host(doc, scs, leakage=FULL, **kwargs)
    for query in AXIS_QUERIES:
        system.flush_caches()
        system.query(query)
    return system.leakage.recorder.encode()


class TestAxisQueryLeakage:
    def test_block_accounting_holds_for_multi_ship_plans(
        self, healthcare_doc, healthcare_scs
    ):
        # Axis plans ship the union of several pattern nodes' survivors;
        # the marker count must still reconcile exactly.
        system = host(healthcare_doc, healthcare_scs)
        for query in AXIS_QUERIES:
            translated = system.client.translate(query)
            response = system.server.answer(translated)
            assert response.blocks_shipped == marker_count(response), query

    def test_run_to_run_identical(self, healthcare_doc, healthcare_scs):
        first = recorded_axis(healthcare_doc, healthcare_scs)
        second = recorded_axis(healthcare_doc, healthcare_scs)
        assert first == second and first

    def test_answers_identical_under_countermeasures(
        self, healthcare_doc, healthcare_scs
    ):
        plain = host(healthcare_doc, healthcare_scs)
        protected = host(healthcare_doc, healthcare_scs, leakage=FULL)
        for query in AXIS_QUERIES:
            assert (
                plain.query(query).canonical()
                == protected.query(query).canonical()
            ), query

    def test_countermeasures_reduce_advantage_on_axis_workload(
        self, healthcare_doc, healthcare_scs
    ):
        unprotected = host(
            healthcare_doc, healthcare_scs, leakage=LeakagePolicy()
        )
        protected = host(
            healthcare_doc, healthcare_scs, leakage=LeakagePolicy.full()
        )
        queries = list(AXIS_QUERIES)
        baseline = run_leakage_game(unprotected, queries, repeats=2, seed=0)
        hardened = run_leakage_game(protected, queries, repeats=2, seed=0)
        assert baseline.max_advantage > 0.0
        assert hardened.max_advantage <= baseline.max_advantage
        assert hardened.bandwidth_overhead > 0.0


# ----------------------------------------------------------------------
# The attacker and the game
# ----------------------------------------------------------------------
class TestAttack:
    def references(self):
        return [
            ObservedTrace((1, 2, 3)),
            ObservedTrace((4,)),
            ObservedTrace((5, 6)),
        ]

    def test_classify_by_length(self):
        attack = TraceClusteringAttack(self.references())
        assert attack.classify(ObservedTrace((9,)), "length") == 1
        assert (
            attack.classify(ObservedTrace((7, 8, 9)), "length")
            == 0
        )

    def test_classify_by_jaccard_and_coaccess(self):
        attack = TraceClusteringAttack(self.references())
        trace = ObservedTrace((2, 3, 9))
        assert attack.classify(trace, "jaccard") == 0
        assert attack.classify(trace, "coaccess") == 0

    def test_unknown_method_rejected(self):
        attack = TraceClusteringAttack(self.references())
        with pytest.raises(ValueError):
            attack.classify(ObservedTrace((1,)), "psychic")

    def test_game_requires_leakage_tier(
        self, healthcare_doc, healthcare_scs
    ):
        system = host(healthcare_doc, healthcare_scs)
        with pytest.raises(ValueError):
            run_leakage_game(system, list(QUERIES))

    def test_countermeasures_reduce_advantage(
        self, healthcare_doc, healthcare_scs
    ):
        unprotected = host(
            healthcare_doc, healthcare_scs, leakage=LeakagePolicy()
        )
        protected = host(
            healthcare_doc, healthcare_scs, leakage=LeakagePolicy.full()
        )
        queries = list(QUERIES)
        baseline = run_leakage_game(unprotected, queries, repeats=2, seed=0)
        hardened = run_leakage_game(protected, queries, repeats=2, seed=0)
        assert baseline.max_advantage > 0.0
        assert hardened.max_advantage <= baseline.max_advantage
        assert hardened.bandwidth_overhead > 0.0
        assert baseline.bandwidth_overhead == 0.0
