"""Access-pattern leakage tier: traces, countermeasures, accounting.

Five invariant families:

* **One switch** — ``host(leakage=)`` takes a bool and nothing else;
  on means padding, decoys and a shuffle, drawn from a stream keyed by
  the owner's master key.
* **Block accounting** (the bugfix) — ``blocks_shipped`` equals the
  number of encrypted-block markers actually present in the shipped
  fragments, on the fast path and the naive path.
* **Trace determinism** — the same master key produces byte-identical
  fetch traces across runs, and another key different ones.
* **No public replay** — an observer holding every public value cannot
  replay the cover draws to strip the decoys and padding back off.
* **Byte-identity & hygiene** — the countermeasures change no answer
  byte on any path, pollute no cache counter, and keep no trace outside
  the game.
"""

import copy

import pytest

from repro.core import client as client_module
from repro.core.leakage import (
    DECOYS,
    PAD_TO,
    LeakageContext,
    ObservedTrace,
    TraceRecorder,
)
from repro.core.system import SecureXMLSystem
from repro.crypto.keyring import ClientKeyring
from repro.crypto.prf import DeterministicRandom
from repro.obs import MetricsRegistry
from repro.obs.metrics import CACHE_LAYERS
from repro.security.leakage import TraceClusteringAttack, run_leakage_game
from repro.serving import ServingServer, remote_system
from repro.workloads.axes import AxisWorkload
from repro.xmldb.node import iter_encrypted_blocks
from repro.xmldb.parser import ENCRYPTED_DATA_TAG

#: Reads of the process counter total.
metrics = MetricsRegistry()

QUERIES = (
    "//patient",
    "//patient[.//insurance//@coverage>=10000]//SSN",
    "//treat[disease='leukemia']/doctor",
    "//insurance/policy#",
    "//SSN",
)

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


def recording(system):
    """Attach a fresh recorder to ``system``'s tier and return it."""
    recorder = system.leakage.recorder = TraceRecorder()
    return recorder


# ----------------------------------------------------------------------
# The switch
# ----------------------------------------------------------------------
class TestPolicy:
    def test_full_enables_everything(self, healthcare_doc, healthcare_scs):
        system = host(healthcare_doc, healthcare_scs, leakage=True)
        recorder = recording(system)
        system.query("//SSN")
        (trace,) = recorder.traces()
        assert PAD_TO > 1 and DECOYS > 0
        assert len(trace.blocks) >= len(trace.real) + DECOYS
        assert len(trace.blocks) % PAD_TO == 0
        assert trace.blocks != trace.real

    def test_coerce_none_without_env_is_off(
        self, healthcare_doc, healthcare_scs, monkeypatch
    ):
        # The switch is the only way on: the retired environment
        # variable is read by nothing.
        monkeypatch.delenv("REPRO_LEAKAGE", raising=False)
        assert host(healthcare_doc, healthcare_scs).leakage is None
        monkeypatch.setenv("REPRO_LEAKAGE", "full")
        assert host(healthcare_doc, healthcare_scs).leakage is None

    def test_coerce_bools_and_passthrough(
        self, healthcare_doc, healthcare_scs
    ):
        off = host(healthcare_doc, healthcare_scs, leakage=False)
        assert off.leakage is None
        system = host(healthcare_doc, healthcare_scs, leakage=True)
        assert isinstance(system.leakage, LeakageContext)
        assert system.server.leakage is system.leakage

    @pytest.mark.parametrize(
        "spec", ["pad", "pad=x", "bogus=1", "pad=8 decoys=2"]
    )
    def test_parse_rejects_bad_specs(
        self, spec, healthcare_doc, healthcare_scs
    ):
        # No policy grammar is left: every spec string is refused.
        with pytest.raises(TypeError):
            host(healthcare_doc, healthcare_scs, leakage=spec)

    def test_coerce_rejects_garbage(self, healthcare_doc, healthcare_scs):
        for value in (None, 1, 0, "off", "full", 3.14):
            with pytest.raises(TypeError, match="must be a bool"):
                host(healthcare_doc, healthcare_scs, leakage=value)

    def test_stream_is_seed_and_label_keyed(self):
        def draws(stream):
            return [stream.randint(0, 99) for _ in range(16)]

        first = ClientKeyring(b"k" * 32)
        assert draws(first.cover_stream()) == draws(first.cover_stream())
        assert draws(first.cover_stream()) != draws(
            ClientKeyring(b"j" * 32).cover_stream()
        )
        assert draws(first.cover_stream()) != draws(first.decoy_stream())


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
        response = system.server.answer(system.client.naive_plan("//*"))
        assert response.blocks_shipped == marker_count(response)
        # Top-level placeholders alone undercount whenever blocks nest.
        assert response.blocks_shipped >= len(system.hosted.blocks)


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
        system = host(document, constraints, leakage=True)
        server, recorder = system.server, recording(system)
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
                assert recorder.traces()[-1].real == tuple(walked), query
                assert response.blocks_shipped == len(walked), query
                assert response.blocks_shipped == marker_count(response), query
            shipped += len(walked)
        assert shipped > 0
        whole = server.answer(system.client.naive_plan("//*"))
        assert whole.blocks_shipped == len(
            list(iter_encrypted_blocks(system.hosted.hosted_root))
        ) == len(system.hosted.blocks)


# ----------------------------------------------------------------------
# Trace determinism
# ----------------------------------------------------------------------
def recorded(doc, scs, **kwargs):
    """Host with the tier on, run QUERIES cold, return trace bytes."""
    system = host(doc, scs, leakage=True, **kwargs)
    recorder = recording(system)
    for query in QUERIES:
        system.flush_caches()
        system.query(query)
    return recorder.encode()


class TestTraceDeterminism:
    def test_run_to_run_identical(self, healthcare_doc, healthcare_scs):
        first = recorded(healthcare_doc, healthcare_scs)
        second = recorded(healthcare_doc, healthcare_scs)
        assert first == second and first

    def test_one_master_key_replays_identical_bytes(
        self, healthcare_doc, healthcare_scs
    ):
        key = b"another-owner-master-key-0123456"
        first = recorded(healthcare_doc, healthcare_scs, master_key=key)
        second = recorded(healthcare_doc, healthcare_scs, master_key=key)
        assert first == second and first

    def test_different_master_keys_differ(
        self, healthcare_doc, healthcare_scs
    ):
        first = recorded(healthcare_doc, healthcare_scs,
                         master_key=b"first-owner-master-key-012345678")
        second = recorded(healthcare_doc, healthcare_scs,
                          master_key=b"second-owner-master-key-01234567")
        assert first != second

    def test_traces_carry_the_real_fetches(
        self, healthcare_doc, healthcare_scs
    ):
        system = host(healthcare_doc, healthcare_scs, leakage=True)
        recorder = recording(system)
        system.query("//patient")
        traces = recorder.traces()
        assert len(traces) == 1
        assert len(traces[0].real) == system.last_trace.blocks_returned
        served = list(traces[0].blocks)
        for block_id in traces[0].real:
            served.remove(block_id)  # every real fetch was served
        assert len(served) >= DECOYS

    def test_repeats_do_not_repeat_decoys(
        self, healthcare_doc, healthcare_scs
    ):
        # The draw stream advances across queries: an observer must
        # not be able to match repeated queries by identical decoy sets.
        system = host(healthcare_doc, healthcare_scs, leakage=True)
        recorder = recording(system)
        for _ in range(2):
            system.flush_caches()
            system.query("//SSN")
        first, second = recorder.traces()
        assert first.blocks != second.blocks


# ----------------------------------------------------------------------
# No public value replays the cover stream
# ----------------------------------------------------------------------
def public_stream():
    """The cover stream every hosting drew from while it was keyed by a
    public seed (0, the default) rather than by the owner."""
    return DeterministicRandom(bytes(16), "leakage:server")


def strip(traces, universe, stream):
    """Replay ``LeakageContext.observe``'s draws to strip the cover traffic.

    For each served sequence the observer tries every real-fetch count
    its length allows, replays that many decoy and padding picks and the
    shuffle on a copy of ``stream``, and keeps the count whose picks all
    sit where the shuffle put them.  Returns the real-fetch sequence it
    recovered per trace, or ``None`` once it has lost the stream.
    """
    recovered = []
    for trace in traces:
        served = trace.blocks
        found = None
        for real_count in range(max(0, len(served) - DECOYS) + 1):
            rng = copy.copy(stream)
            picks = [
                universe[rng.randint(0, len(universe) - 1)]
                for _ in range(len(served) - real_count)
            ]
            order = list(range(len(served)))
            rng.shuffle(order)
            if all(
                served[position] == picks[index - real_count]
                for position, index in enumerate(order)
                if index >= real_count
            ):
                real = [None] * real_count
                for position, index in enumerate(order):
                    if index < real_count:
                        real[index] = served[position]
                found, stream = tuple(real), rng
                break
        if found is None:
            return recovered + [None] * (len(traces) - len(recovered))
        recovered.append(found)
    return recovered


class TestNoPublicReplay:
    def test_public_seed_replay_strips_no_trace(
        self, healthcare_doc, healthcare_scs
    ):
        system = host(healthcare_doc, healthcare_scs, leakage=True)
        recorder = recording(system)
        for query in QUERIES:
            system.flush_caches()
            system.query(query)
        traces = recorder.traces()
        universe = tuple(sorted(system.hosted.blocks))
        assert len(traces) == len(QUERIES)

        # Control: the same real fetches covered from the public stream
        # are stripped, every one of them.
        public = LeakageContext(public_stream())
        control = public.recorder = TraceRecorder()
        for trace in traces:
            public.observe(trace.real, universe, system.hosted.blocks.get)
        assert strip(control.traces(), universe, public_stream()) == [
            trace.real for trace in traces
        ]

        stripped = strip(traces, universe, public_stream())
        assert not [
            trace for trace, real in zip(traces, stripped)
            if real == trace.real
        ]


# ----------------------------------------------------------------------
# Byte-identity under the full countermeasure set
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_answers_identical_in_process(
        self, healthcare_doc, healthcare_scs
    ):
        plain = host(healthcare_doc, healthcare_scs)
        protected = host(healthcare_doc, healthcare_scs, leakage=True)
        for query in QUERIES:
            assert (
                plain.query(query).canonical()
                == protected.query(query).canonical()
            ), query

    def test_answers_identical_over_live_sockets(
        self, healthcare_doc, healthcare_scs
    ):
        reference = host(healthcare_doc, healthcare_scs)
        local = host(healthcare_doc, healthcare_scs, leakage=True)
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
        local = host(healthcare_doc, healthcare_scs, leakage=True)
        server = ServingServer(max_inflight=8)
        server.register_tenant("t0", local)
        address = server.start()
        try:
            remote = remote_system(local, address, "t0")
            try:
                remote.query(QUERIES[0])
                # The switch, read by the host in process: no frame
                # reports a tenant's posture.
                assert server.tenants["t0"].system.leakage is not None
            finally:
                remote.close()
        finally:
            server.stop()

    def test_a_served_tenant_keeps_no_trace(
        self, healthcare_doc, healthcare_scs
    ):
        local = host(healthcare_doc, healthcare_scs, leakage=True)
        server = ServingServer(max_inflight=8)
        server.register_tenant("t0", local)
        address = server.start()
        try:
            remote = remote_system(local, address, "t0")
            try:
                before = metrics.counter_values()
                for query in QUERIES * 4:
                    local.server.flush_caches()  # every query evaluates
                    remote.query(query)
                delta = metrics.counters_delta(before)
            finally:
                remote.close()
        finally:
            server.stop()
        assert local.leakage.recorder is None
        assert delta["leakage_traces_recorded"] == 0
        assert delta["leakage_decoy_fetches"] >= DECOYS * len(QUERIES) * 4


# ----------------------------------------------------------------------
# Cache hygiene: cover traffic must not pollute cache accounting
# ----------------------------------------------------------------------
class TestCacheHygiene:
    def warm_deltas(self, doc, scs, **kwargs):
        system = host(doc, scs, **kwargs)
        for query in QUERIES:
            system.query(query)  # cold pass fills every cache
        before = metrics.counter_values()
        for query in QUERIES:
            system.query(query)  # warm pass measured
        return metrics.counters_delta(before)

    def test_leakage_is_not_a_cache_layer(self):
        for layer in CACHE_LAYERS:
            assert "leakage" not in layer

    def test_warm_hit_rates_unchanged_by_policy(
        self, healthcare_doc, healthcare_scs
    ):
        plain = self.warm_deltas(healthcare_doc, healthcare_scs)
        protected = self.warm_deltas(
            healthcare_doc, healthcare_scs, leakage=True
        )
        cache_keys = [
            key for key in plain
            if any(layer in key for layer in CACHE_LAYERS)
        ]
        assert cache_keys  # the warm pass exercised real caches
        for key in cache_keys:
            assert plain[key] == protected.get(key, 0), key

    def test_cover_traffic_lands_in_dedicated_counters(
        self, healthcare_doc, healthcare_scs
    ):
        system = host(healthcare_doc, healthcare_scs, leakage=True)
        before = metrics.counter_values()
        system.query("//SSN")
        delta = metrics.counters_delta(before)
        assert delta.get("leakage_decoy_fetches", 0) == DECOYS
        assert delta.get("leakage_extra_bytes", 0) > 0
        # Outside the game nothing records the trace.
        assert delta.get("leakage_traces_recorded", 0) == 0


# ----------------------------------------------------------------------
# Axis-heavy queries: same gates, new plans
# ----------------------------------------------------------------------
def recorded_axis(doc, scs, **kwargs):
    """Host with the tier on, run AXIS_QUERIES cold, return bytes."""
    system = host(doc, scs, leakage=True, **kwargs)
    recorder = recording(system)
    for query in AXIS_QUERIES:
        system.flush_caches()
        system.query(query)
    return recorder.encode()


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
        protected = host(healthcare_doc, healthcare_scs, leakage=True)
        for query in AXIS_QUERIES:
            assert (
                plain.query(query).canonical()
                == protected.query(query).canonical()
            ), query

    def test_countermeasures_reduce_advantage_on_axis_workload(
        self, healthcare_doc, healthcare_scs
    ):
        system = host(healthcare_doc, healthcare_scs, leakage=True)
        queries = list(AXIS_QUERIES)
        baseline, hardened = run_leakage_game(
            system, queries, repeats=2, seed=0
        )
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
        system = host(healthcare_doc, healthcare_scs, leakage=True)
        queries = list(QUERIES)
        baseline, hardened = run_leakage_game(
            system, queries, repeats=2, seed=0
        )
        assert baseline.max_advantage > 0.0
        assert hardened.max_advantage <= baseline.max_advantage
        assert hardened.bandwidth_overhead > 0.0
        assert baseline.bandwidth_overhead == 0.0
        assert system.leakage.recorder is None  # attached for the game only
