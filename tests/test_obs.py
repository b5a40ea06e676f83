"""The observability layer: spans, metrics, slow log, and reconciliation.

The load-bearing contract is at the end: :class:`~repro.core.system
.QueryTrace`'s stage timings and fault counts are read off its root
span, so the per-stage span totals reconcile with the trace fields on
every query, retried ones included.
"""

import json

import pytest

from repro.core.system import SecureXMLSystem
from repro.netsim.channel import Channel
from fault_channel import FaultPolicy, FaultyChannel
from repro.core.system import QueryTrace
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Observability,
    SlowQueryLog,
    Span,
)
from prometheus_lint import lint_prometheus, parse_prometheus
from repro.obs.span import activate, current, span

#: (span name, trace attribute) — what each stage timing is read off.
STAGES = (
    ("translate", "translate_client_s"),
    ("server", "server_s"),
    ("transfer", "transfer_s"),
    ("decrypt", "decrypt_client_s"),
    ("postprocess", "postprocess_client_s"),
    ("backoff", "backoff_s"),
)

TOLERANCE_S = 0.001


def assert_reconciles(trace) -> None:
    root = trace.span
    assert root is not None
    assert root.duration_s is not None, "root span left open"
    for span_name, attr in STAGES:
        assert root.total(span_name) == pytest.approx(
            getattr(trace, attr), abs=TOLERANCE_S
        ), span_name


class TestSpan:
    def test_nesting_and_finish(self):
        with span("outer") as outer:
            with span("inner") as inner:
                pass
        assert inner.parent is outer
        assert outer.children == [inner]
        assert outer.duration_s >= inner.duration_s >= 0.0

    def test_finish_is_idempotent(self):
        span = Span("x")
        first = span.finish()
        assert span.finish() == first

    def test_set_duration_marks_modelled(self):
        span = Span("transfer")
        span.set_duration(0.25)
        assert span.duration_s == 0.25
        assert span.annotations["modelled"] is True

    def test_total_sums_across_subtree(self):
        with span("root") as root:
            for _ in range(3):
                child = span("server")
                child.set_duration(0.5)
        assert root.total("server") == pytest.approx(1.5)
        assert root.total("nosuch") == 0.0

    def test_find_and_iter_depth_first(self):
        with span("root") as root:
            with span("a"):
                span("leaf").finish()
            with span("b"):
                pass
        names = [span.name for span in root.iter()]
        assert names == ["root", "a", "leaf", "b"]
        assert root.find("leaf").name == "leaf"
        assert root.find("nosuch") is None

    def test_add_event_accumulates(self):
        span = Span("attempt")
        span.add_event("faults", "drop")
        span.add_event("faults", "corrupt")
        assert span.annotations["faults"] == ["drop", "corrupt"]

    def test_as_dict_round_trips_through_json(self):
        with span("root", query="//a") as root:
            with span("child"):
                pass
        data = json.loads(json.dumps(root.as_dict()))
        assert data["name"] == "root"
        assert data["annotations"] == {"query": "//a"}
        assert data["children"][0]["name"] == "child"

    def test_render_groups_repeated_leaves(self):
        with span("root") as root:
            for _ in range(4):
                span("transfer").set_duration(0.001)
        rendered = root.render()
        assert "transfer ×4" in rendered


class TestTracer:
    """The ambient context: one stack of open spans per thread."""

    def test_begin_does_not_become_ambient(self):
        root = span("query")
        assert current() is None
        with activate(root):
            assert current() is root
        assert current() is None

    def test_activate_none_is_a_noop(self):
        with activate(None):
            assert current() is None

    def test_each_thread_has_its_own_stack(self):
        import threading

        seen = []
        with span("here"):
            worker = threading.Thread(target=lambda: seen.append(current()))
            worker.start()
            worker.join(timeout=10)
        assert seen == [None]


class TestHistogram:
    def test_buckets_are_cumulative(self):
        histogram = Histogram(buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 5.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [1, 2, 3]
        assert histogram.count == 4
        assert histogram.min == 0.0005
        assert histogram.max == 5.0
        assert histogram.sum == pytest.approx(5.0555)

    def test_registry_rejects_unknown_histogram(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown histogram"):
            registry.observe("nosuch_seconds", 0.1)


class TestExporters:
    def _registry_with_samples(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.observe("query_seconds", 0.002)
        registry.observe("query_seconds", 0.2)
        registry.observe("transfer_seconds", 0.0003)
        return registry

    def test_json_round_trip(self):
        registry = self._registry_with_samples()
        data = json.loads(registry.to_json())
        assert data["histograms"]["query_seconds"]["count"] == 2
        assert data["histograms"]["query_seconds"]["sum"] == pytest.approx(
            0.202
        )
        assert "counters" in data

    def test_prometheus_output_is_lint_clean(self):
        text = self._registry_with_samples().to_prometheus()
        assert lint_prometheus(text) == []

    def test_prometheus_parse_back(self):
        registry = self._registry_with_samples()
        samples = parse_prometheus(registry.to_prometheus())
        assert samples["repro_query_seconds_count"] == 2.0
        assert samples["repro_query_seconds_sum"] == pytest.approx(0.202)
        assert samples['repro_query_seconds_bucket{le="+Inf"}'] == 2.0
        # Cumulative buckets: every bound's count <= the +Inf count.
        buckets = [
            value
            for key, value in samples.items()
            if key.startswith("repro_query_seconds_bucket")
        ]
        assert all(value <= 2.0 for value in buckets)
        # Counters surface with the _total convention.
        assert any(key.endswith("_total") for key in samples)

    def test_lint_catches_malformed_expositions(self):
        assert lint_prometheus("no_newline 1") != []
        assert any(
            "blank" in problem
            for problem in lint_prometheus("a_total 1\n\nb_total 2\n")
        )
        assert any(
            "TYPE" in problem
            for problem in lint_prometheus("orphan_metric 1\n")
        )
        assert any(
            "malformed" in problem
            for problem in lint_prometheus(
                "# HELP x help\n# TYPE x counter\nx one_banana\n"
            )
        )


def stage_trace(query: str, **stages: float) -> QueryTrace:
    """A finished trace whose root holds one modelled span per stage."""
    trace = QueryTrace(query=query)
    with activate(trace.span):
        for name, seconds in stages.items():
            span(name).set_duration(seconds)
    trace.span.finish()
    return trace


class TestSlowQueryLog:
    def _trace(self, query: str, seconds: float):
        trace = stage_trace(query, server=seconds)
        trace.attempts = 1
        return trace

    def test_keeps_slowest_up_to_capacity(self):
        log = SlowQueryLog(capacity=3)
        for index in range(10):
            log.record(self._trace(f"//q{index}", float(index)))
        entries = log.entries()
        assert len(entries) == 3
        assert [entry.query for entry in entries] == ["//q9", "//q8", "//q7"]

    def test_render_and_clear(self):
        log = SlowQueryLog(capacity=2)
        log.record(self._trace("//a", 0.5))
        rendered = log.render()
        assert "//a" in rendered
        log.clear()
        assert len(log) == 0
        assert log.entries() == []

    def test_as_dicts_are_json_able(self):
        log = SlowQueryLog(capacity=2)
        log.record(self._trace("//a", 0.5))
        payload = json.loads(json.dumps(log.as_dicts()))
        assert payload[0]["query"] == "//a"


class TestObservabilityContainer:
    def test_coerce(self):
        assert isinstance(Observability.coerce(None), Observability)
        shared = Observability()
        assert Observability.coerce(shared) is shared
        for value in (True, False, "yes"):
            with pytest.raises(TypeError):
                Observability.coerce(value)

    def test_record_reads_histograms_off_the_root(self):
        obs = Observability()
        trace = stage_trace(
            "//a", transfer=0.001, decrypt_batch=0.002, backoff=0.01
        )
        obs.record_query(trace)
        histograms = obs.metrics.snapshot()["histograms"]
        for name in (
            "query_seconds", "transfer_seconds", "chunk_decrypt_seconds",
            "retry_backoff_seconds",
        ):
            assert histograms[name]["count"] == 1, name
        assert histograms["query_seconds"]["sum"] == pytest.approx(0.011)


class TestEndToEnd:
    """The reconciliation and propagation contract on a real system."""

    def test_serial_spans_reconcile_with_trace(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs
        )
        for query in ("//patient/SSN", "/hospital/patient", "//pname"):
            system.query(query)
            assert_reconciles(system.last_trace)

    def test_batch_spans_reconcile(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        queries = ["//patient/SSN", "//pname", "/hospital/patient"]
        system.execute_many(queries)
        assert len(system.last_batch_traces) == len(queries)
        for trace in system.last_batch_traces:
            assert_reconciles(trace)

    def test_naive_query_traced(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs
        )
        system.naive_query("//patient/SSN")
        trace = system.last_trace
        assert trace.naive
        root = trace.span
        assert root is not None
        assert root.annotations.get("naive") is True
        assert_reconciles(trace)

    def test_there_is_no_off_switch(self, healthcare_doc, healthcare_scs):
        for value in (False, True):
            with pytest.raises(TypeError):
                SecureXMLSystem.host(
                    healthcare_doc, healthcare_scs, observability=value
                )

    def test_queries_land_in_histograms_and_slow_log(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs
        )
        queries = ("//patient/SSN", "//pname")
        for query in queries:
            system.query(query)
        obs = system.observability()
        snapshot = obs.metrics.snapshot()
        assert snapshot["histograms"]["query_seconds"]["count"] == len(
            queries
        )
        assert snapshot["histograms"]["chunk_decrypt_seconds"]["count"] > 0
        logged = {entry.query for entry in obs.slow_log.entries()}
        assert logged == set(queries)
        assert lint_prometheus(obs.export_prometheus()) == []
        exported = json.loads(obs.export_json())
        assert len(exported["slow_queries"]) == len(queries)

    def test_transfer_spans_carry_modelled_time(
        self, healthcare_doc, healthcare_scs
    ):
        channel = Channel()
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, channel=channel
        )
        system.query("//patient/SSN")
        root = system.last_trace.span
        transfer = root.find("transfer")
        assert transfer is not None
        assert transfer.annotations["modelled"] is True
        assert transfer.annotations["direction"] == "client->server"
        # Exact: the trace reads the modelled seconds off these spans.
        assert root.total("transfer") == system.last_trace.transfer_s

    def test_postprocess_splits_into_assemble_and_evaluate(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs
        )
        system.query("//treat/preceding::pname")
        trace = system.last_trace
        postprocess = trace.span.find("postprocess")
        assert [c.name for c in postprocess.children] == [
            "assemble",
            "evaluate",
        ]
        halves = sum(child.duration_s for child in postprocess.children)
        assert 0.0 < halves <= postprocess.duration_s
        # The halves are children, not new stages: the stage total is
        # still the one span the trace field is read off.
        assert trace.span.total("postprocess") == trace.postprocess_client_s
        slowest = system.observability().slow_log.entries()[0]
        assert slowest.span.find("evaluate") is not None

    def test_decrypt_batch_says_which_sight_it_parsed(
        self, healthcare_doc, healthcare_scs
    ):
        """Two reads of two fragments: parsed and handed on, parsed again
        into the trees later reads clone, then nothing left to parse."""
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        seen = []
        for _ in range(3):
            system.query("//patient")
            batch = system.last_trace.span.find("decrypt_batch")
            seen.append(batch and batch.annotations)
        assert seen == [
            {"first": 2, "second": 0}, {"first": 0, "second": 2}, None
        ]


class TestFaultAnnotations:
    def test_fault_kinds_annotate_the_open_span(self):
        policy = FaultPolicy.symmetric(seed=0, corrupt=1.0)
        channel = FaultyChannel(policy=policy)
        with span("attempt") as attempt:
            channel.transfer("client->server", "query", b"x" * 64)
        assert attempt.annotations["faults"] == ["corrupt"]
        assert attempt.counts == {"faults_corrupted": 1}

    def test_retried_query_annotates_faults_and_reconciles(
        self, healthcare_doc, healthcare_scs
    ):
        policy = FaultPolicy.symmetric(seed=3, drop=0.4)
        channel = FaultyChannel(policy=policy)
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, channel=channel
        )
        retried = None
        for query in ("//patient/SSN", "//pname", "/hospital/patient"):
            system.query(query)
            assert_reconciles(system.last_trace)
            if system.last_trace.retries:
                retried = system.last_trace
        assert retried is not None, "fault schedule produced no retry"
        root = retried.span
        faults = [
            fault
            for span in root.iter()
            for fault in span.annotations.get("faults", ())
        ]
        assert "drop" in faults
        failed_attempts = [
            span
            for span in root.iter()
            if span.name == "attempt" and "error" in span.annotations
        ]
        assert len(failed_attempts) == retried.retries
        # Backoff spans are modelled; they reconcile exactly.
        assert root.total("backoff") == retried.backoff_s
        assert retried.backoff_s > 0.0
        entry = next(
            entry
            for entry in system.observability().slow_log.entries()
            if entry.query == retried.query and entry.retries
        )
        assert entry.retries == retried.retries


    def test_query_retried_after_a_decrypt_failure_reconciles(
        self, healthcare_doc, healthcare_scs
    ):
        """The first attempt fails the owner's block tags in decrypt; the
        second answers.  Both attempts' decrypt time and the one failure
        are on the root, and the root is what the process total got."""
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        tags = system.hosted.block_tags
        decrypt = system.client.decrypt_fragments
        calls = []

        def decrypt_once_over_wrong_tags(response):
            calls.append(response)
            if len(calls) > 1:
                return decrypt(response)
            saved = dict(tags)
            tags.update((block_id, bytes(32)) for block_id in saved)
            try:
                return decrypt(response)
            finally:
                tags.update(saved)

        system.client.decrypt_fragments = decrypt_once_over_wrong_tags
        metrics = system.observability().metrics
        before = metrics.counter_values()
        answer = system.query("//patient/SSN")
        delta = metrics.counters_delta(before)
        trace = system.last_trace
        assert len(answer) == 2 and len(calls) == 2
        assert trace.retries == 1 and trace.drops == 0
        assert trace.integrity_failures == delta["integrity_failures"] == 1
        assert_reconciles(trace)
        decrypts = [s for s in trace.span.iter() if s.name == "decrypt"]
        assert len(decrypts) == 2
        assert trace.decrypt_client_s == sum(s.duration_s for s in decrypts)
        assert trace.span.counts == {
            name: value for name, value in delta.items() if value
        }


class TestSharedObservability:
    def test_one_context_across_systems(self, healthcare_doc, healthcare_scs):
        obs = Observability()
        first = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, observability=obs
        )
        second = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, observability=obs
        )
        first.query("//patient/SSN")
        second.query("//pname")
        snapshot = obs.metrics.snapshot()
        assert snapshot["histograms"]["query_seconds"]["count"] == 2
        assert len(obs.slow_log) == 2

    def test_reset_clears_histograms_and_slow_log(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs
        )
        system.query("//patient/SSN")
        obs = system.observability()
        obs.reset()
        assert len(obs.slow_log) == 0
        snapshot = obs.metrics.snapshot()
        assert all(
            data["count"] == 0 for data in snapshot["histograms"].values()
        )
