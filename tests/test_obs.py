"""The observability layer: spans, metrics, slow log, and reconciliation.

The load-bearing contract is at the end: the span tree is a *view* of the
same measurements :class:`~repro.core.system.QueryTrace` reports, so the
per-stage span totals must reconcile with the trace fields — exactly for
modelled stages (transfer, backoff), and well within the issue's ±1ms
acceptance window for measured ones.
"""

import json

import pytest

from repro.core.system import SecureXMLSystem
from repro.netsim.channel import Channel
from repro.netsim.faults import FaultPolicy, FaultyChannel
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Observability,
    SlowQueryLog,
    Span,
    Tracer,
    lint_prometheus,
    parse_prometheus,
)

#: (span name, trace attribute) — the compatibility-view mapping.
STAGES = (
    ("translate", "translate_client_s"),
    ("server", "server_s"),
    ("transfer", "transfer_s"),
    ("decrypt", "decrypt_client_s"),
    ("postprocess", "postprocess_client_s"),
    ("backoff", "backoff_s"),
)

TOLERANCE_S = 0.001  # the issue's ±1ms acceptance window


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
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
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
        tracer = Tracer()
        with tracer.span("root") as root:
            for _ in range(3):
                child = tracer.begin("server")
                child.set_duration(0.5)
        assert root.total("server") == pytest.approx(1.5)
        assert root.total("nosuch") == 0.0

    def test_find_and_iter_depth_first(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a"):
                tracer.begin("leaf").finish()
            with tracer.span("b"):
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
        tracer = Tracer()
        with tracer.span("root", query="//a") as root:
            with tracer.span("child"):
                pass
        data = json.loads(json.dumps(root.as_dict()))
        assert data["name"] == "root"
        assert data["annotations"] == {"query": "//a"}
        assert data["children"][0]["name"] == "child"

    def test_render_groups_repeated_leaves(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            for _ in range(4):
                tracer.begin("transfer").set_duration(0.001)
        rendered = root.render()
        assert "transfer ×4" in rendered


class TestTracer:
    def test_disabled_spans_still_time(self):
        tracer = Tracer(enabled=False)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        # Timed, but never linked or made ambient.
        assert inner.duration_s is not None
        assert inner.parent is None
        assert outer.children == []
        assert tracer.current() is None

    def test_begin_does_not_become_ambient(self):
        tracer = Tracer()
        root = tracer.begin("query")
        assert tracer.current() is None
        with tracer.activate(root):
            assert tracer.current() is root
        assert tracer.current() is None

    def test_activate_none_is_a_noop(self):
        tracer = Tracer()
        with tracer.activate(None):
            assert tracer.current() is None


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


class TestSlowQueryLog:
    def _trace(self, query: str, seconds: float):
        from repro.core.system import QueryTrace

        trace = QueryTrace(query=query)
        trace.server_s = seconds
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
        enabled = Observability.coerce(None)
        assert enabled.enabled
        assert not Observability.coerce(False).enabled
        assert Observability.coerce(True).enabled
        shared = Observability()
        assert Observability.coerce(shared) is shared
        with pytest.raises(TypeError):
            Observability.coerce("yes")

    def test_disabled_record_is_a_noop(self):
        obs = Observability(enabled=False)
        from repro.core.system import QueryTrace

        trace = QueryTrace(query="//a")
        obs.record_query(trace)
        assert len(obs.slow_log) == 0
        snapshot = obs.metrics.snapshot()
        assert snapshot["histograms"]["query_seconds"]["count"] == 0


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

    def test_disabled_observability_still_populates_trace(
        self, healthcare_doc, healthcare_scs
    ):
        enabled = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs
        )
        disabled = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs,
            observability=False,
        )
        answer_on = enabled.query("//patient/SSN")
        answer_off = disabled.query("//patient/SSN")
        assert answer_off.canonical() == answer_on.canonical()
        trace = disabled.last_trace
        assert trace.span is None  # nothing linked…
        assert trace.server_s > 0.0  # …but the timings are all there
        assert trace.decrypt_client_s > 0.0
        obs = disabled.observability()
        assert len(obs.slow_log) == 0
        snapshot = obs.metrics.snapshot()
        assert snapshot["histograms"]["query_seconds"]["count"] == 0

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
        # Exact: modelled seconds are copied, not re-measured.
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
        # still the one span the trace field was written from.
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
        obs = Observability()
        policy = FaultPolicy.symmetric(seed=0, corrupt=1.0)
        channel = FaultyChannel(policy=policy)
        channel.obs = obs
        with obs.tracer.span("attempt") as span:
            channel.transfer("client->server", "query", b"x" * 64)
        assert span.annotations["faults"] == ["corrupt"]

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
