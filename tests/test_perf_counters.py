"""Counters: one record, on the span tree, folded into one process total.

``count`` lands on the innermost open span of the calling thread; a span
folds into its parent when it finishes, a root into the process total
under one lock.  The front door's connection threads count at once,
so no fold and no unspanned count may lose an increment under contention.
"""

import json
import os
import sys
import threading

import pytest

from counter_script import QUERIES, run_script
from repro.core.system import QueryFailedError, SecureXMLSystem
from fault_channel import FaultPolicy, FaultyChannel
from repro.obs import MetricsRegistry
from repro.obs.metrics import CACHE_LAYERS, COUNTERS
from repro.obs.span import count, span
from repro.workloads.healthcare import build_healthcare_database
from repro.xpath.parser import XPathSyntaxError

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "counter_script_deltas.json"
)


class TestHitRateValidation:
    def test_unknown_layer_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown cache layer"):
            MetricsRegistry().hit_rate("nosuch")

    def test_error_names_the_known_layers(self):
        with pytest.raises(ValueError, match="plan"):
            MetricsRegistry().hit_rate("nosuch")

    def test_every_advertised_layer_is_queryable(self):
        registry = MetricsRegistry()
        assert "plan" in CACHE_LAYERS and "block" in CACHE_LAYERS
        for layer in CACHE_LAYERS:
            assert 0.0 <= registry.hit_rate(layer) <= 1.0

    def test_hit_rate_math(self):
        registry = MetricsRegistry()
        before = registry.counter_values()
        with span("probe"):
            count("plan_cache_hits", 3)
            count("plan_cache_misses", 1)
        delta = registry.counters_delta(before)
        hits = before["plan_cache_hits"] + 3
        total = hits + before["plan_cache_misses"] + 1
        assert delta["plan_cache_hits"] == 3
        assert registry.hit_rate("plan") == pytest.approx(hits / total)


class TestCounterThreadSafety:
    def test_add_is_lossless_under_contention(self):
        registry = MetricsRegistry()
        before = registry.counter_values()["serving_requests"]

        def unspanned():
            for _ in range(5_000):
                count("serving_requests")

        def rooted():  # every root folds into the total under the lock
            for _ in range(1_000):
                with span("request"):
                    with span("stage"):
                        count("serving_requests", 5)

        threads = [
            threading.Thread(target=work)
            for work in (unspanned, rooted) * 4
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # preempt inside read-modify-writes
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        after = registry.counter_values()["serving_requests"]
        assert after - before == 40_000
        count("serving_requests", -40_000)  # leave no residue

    def test_concurrent_execute_many_loses_no_counts(self, healthcare_scs):
        """K identical systems on K threads count exactly K× one.

        Each system does deterministic single-threaded work, counting on
        its own thread's query roots; only the process total is shared.
        """
        registry = MetricsRegistry()

        def make_system():
            return SecureXMLSystem.host(
                build_healthcare_database(), healthcare_scs
            )

        probe = make_system()
        baseline = registry.counter_values()
        probe.execute_many(QUERIES)
        single = registry.counters_delta(baseline)

        lanes = [make_system() for _ in range(4)]
        baseline = registry.counter_values()
        threads = [
            threading.Thread(target=system.execute_many, args=(QUERIES,))
            for system in lanes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        combined = registry.counters_delta(baseline)
        for name, value in single.items():
            assert combined.get(name, 0) == 4 * value, name


class TestOneRecord:
    def test_counts_land_on_the_open_span_and_fold_once(self):
        registry = MetricsRegistry()
        before = registry.counter_values()
        with span("root") as root:
            with span("child") as child:
                count("plan_cache_hits", 2)
            count("plan_cache_misses")
            # Nothing reaches the process total while the root is open.
            assert registry.counters_delta(before)["plan_cache_hits"] == 0
        assert child.counts == {"plan_cache_hits": 2}
        assert root.counts == {"plan_cache_hits": 2, "plan_cache_misses": 1}
        root.finish()  # idempotent: folded exactly once
        delta = registry.counters_delta(before)
        assert delta["plan_cache_hits"] == 2
        assert delta["plan_cache_misses"] == 1

    def test_every_declared_counter_is_reported_zero_included(self):
        values = MetricsRegistry().counter_values()
        assert list(values) == list(COUNTERS)
        assert len(COUNTERS) == 41  # join_reuses joined the 40
        assert all(help_text.strip() for help_text in COUNTERS.values())

    def test_every_counted_name_is_declared(self):
        """A typo'd ``count("...")`` would be dropped from every export."""
        import ast
        import pathlib

        import repro

        counted = set()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "count"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    counted.add(node.args[0].value)
        assert counted and counted <= set(COUNTERS), counted - set(COUNTERS)

    def test_a_query_that_raises_untyped_still_folds_its_counts(
        self, healthcare_doc, healthcare_scs
    ):
        """Not a ``QueryFailedError``: the root still finishes."""
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        registry = system.observability().metrics
        before = registry.counter_values()
        with pytest.raises(XPathSyntaxError):
            system.query("//patient[")
        assert registry.counters_delta(before)["plan_cache_misses"] == 1
        assert system.last_trace is None

    def test_block_tag_failures_count_once_per_attempt(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        registry = system.observability().metrics
        tags = system.hosted.block_tags
        tags.update((block_id, bytes(32)) for block_id in list(tags))
        before = registry.counter_values()
        with pytest.raises(QueryFailedError):
            system.query("//insurance")
        delta = registry.counters_delta(before)
        assert system.retry_policy.max_attempts == 4
        assert delta["integrity_failures"] == 4
        assert delta["query_retries"] == 3
        entry = system.observability().slow_log.entries()[0]
        assert entry.trace.failed and entry.trace.integrity_failures == 4

    def test_one_backoff_sample_per_retry(self, healthcare_doc, healthcare_scs):
        channel = FaultyChannel(policy=FaultPolicy.symmetric(seed=3, drop=0.5))
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, channel=channel
        )
        obs = system.observability()
        before = obs.metrics.counter_values()
        queries = ["//patient/SSN", "//pname", "/hospital/patient"] * 7
        for query in queries[:20]:
            try:
                system.query(query)
            except QueryFailedError:
                pass
        retries = obs.metrics.counters_delta(before)["query_retries"]
        samples = obs.metrics.snapshot()["histograms"]["retry_backoff_seconds"]
        assert retries > 0
        assert samples["count"] == retries


def test_counter_script_deltas_match_the_pinned_fixture():
    """The fixture was taken before counts moved onto spans.  One value
    moved on purpose: the tamper step's four block-tag failures were
    counted twice each (8); they are counted once, where detected.  The
    answer memo is newer than the fixture: each read of the script is a
    first or second sight, so each attempt adds one ``answer_memo_misses``
    (the tampered read's four included) and moves no other count."""
    with open(FIXTURE, encoding="utf-8") as handle:
        pinned = json.load(handle)
    pinned["tamper"]["integrity_failures"] = 4
    for step, deltas in pinned.items():
        if step != "insert":
            deltas["answer_memo_misses"] = 4 if step == "tamper" else 1
    assert run_script() == pinned
