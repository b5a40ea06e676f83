"""`close()` → query → `close()` cycles keep the system fully coherent.

`SecureXMLSystem.close()` is idempotent and an in-process system stays
usable after it.  These tests pin the whole surface across such cycles:
answers, `last_trace`, the perf counters and the observability context
all keep working.
"""

import pytest

from repro.core.system import SecureXMLSystem
from repro.netsim.channel import Channel
from repro.obs import MetricsRegistry

#: Reads of the process counter total.
metrics = MetricsRegistry()

QUERY = "//patient/SSN"


@pytest.fixture
def system(healthcare_doc, healthcare_scs):
    system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
    yield system
    system.close()


class TestCloseQueryCycles:
    def test_query_after_close(self, system):
        baseline = system.query(QUERY).canonical()
        system.close()
        assert system.query(QUERY).canonical() == baseline
        system.close()
        assert system.query(QUERY).canonical() == baseline

    def test_close_is_idempotent(self, system):
        system.close()
        system.close()
        assert system.query(QUERY) is not None

    def test_last_trace_coherent_across_cycles(self, system):
        system.query(QUERY)
        first = system.last_trace
        system.close()
        system.query("//pname")
        second = system.last_trace
        assert first is not second
        assert second.query == "//pname"
        assert second.attempts >= 1
        if second.span is not None:
            assert second.span.duration_s is not None

    def test_execute_many_after_close(self, system):
        queries = [QUERY, "//pname", QUERY]
        baseline = [a.canonical() for a in system.execute_many(queries)]
        system.close()
        again = [a.canonical() for a in system.execute_many(queries)]
        assert again == baseline
        assert len(system.last_batch_traces) == len(queries)

    def test_counters_keep_accumulating_across_cycles(self, system):
        before = metrics.counter_values()
        system.query(QUERY)
        system.close()
        system.flush_caches()
        system.query(QUERY)
        delta = metrics.counters_delta(before)
        # Two cold executions: the second cycle's decrypt work is counted.
        assert delta.get("blocks_decrypted", 0) > 0

    def test_observability_keeps_recording_across_cycles(self, system):
        system.query(QUERY)
        system.close()
        system.query("//pname")
        obs = system.observability()
        snapshot = obs.metrics.snapshot()
        assert snapshot["histograms"]["query_seconds"]["count"] == 2
        assert len(obs.slow_log) == 2


class TestClusterCloseCycles:
    """The same contract on a two-replica system."""

    @pytest.fixture
    def cluster_system(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc,
            healthcare_scs,
            channel=[Channel(), Channel()],
        )
        yield system
        system.close()

    def test_query_after_close(self, cluster_system):
        baseline = cluster_system.query(QUERY).canonical()
        cluster_system.close()
        assert cluster_system.query(QUERY).canonical() == baseline
        cluster_system.close()
        assert cluster_system.query(QUERY).canonical() == baseline

    def test_close_is_idempotent(self, cluster_system):
        cluster_system.close()
        cluster_system.close()
        assert cluster_system.query(QUERY) is not None

    def test_trace_coherent_across_cycles(self, cluster_system):
        cluster_system.query(QUERY)
        assert cluster_system.last_trace.attempts == 1
        cluster_system.close()
        cluster_system.query("//pname")
        trace = cluster_system.last_trace
        assert trace.query == "//pname"
        assert trace.attempts == 1

    def test_execute_many_after_close(self, cluster_system):
        queries = [QUERY, "//pname", QUERY]
        baseline = [
            a.canonical() for a in cluster_system.execute_many(queries)
        ]
        cluster_system.close()
        again = [
            a.canonical() for a in cluster_system.execute_many(queries)
        ]
        assert again == baseline


class TestConcurrentClose:
    """Satellite of PR 8: `close()` is safe under concurrency.

    A serving drain can race an explicit `close()` (or another drain),
    so the teardown must tolerate being entered from several threads at
    once — and still leave the system usable afterwards.
    """

    def test_threaded_double_close(self, system):
        import threading

        system.query(QUERY)
        errors = []

        def closer():
            try:
                system.close()
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert system.query(QUERY) is not None

    def test_threaded_close_on_cluster_system(
        self, healthcare_doc, healthcare_scs
    ):
        import threading

        system = SecureXMLSystem.host(
            healthcare_doc,
            healthcare_scs,
            channel=[Channel(), Channel()],
        )
        system.query(QUERY)
        errors = []

        def closer():
            try:
                system.close()
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert system.query(QUERY) is not None
        system.close()

    def test_remote_system_close_races_server_drain(
        self, healthcare_doc, healthcare_scs
    ):
        """The drain-vs-close race the serving layer actually hits."""
        import threading

        from repro.serving import ServingServer, remote_system

        local = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        server = ServingServer()
        server.register_tenant("t0", local)
        remote = remote_system(local, server.start(), "t0")
        remote.query(QUERY)
        errors = []

        def run(target):
            try:
                target()
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(remote.close,)),
            threading.Thread(target=run, args=(server.drain,)),
            threading.Thread(target=run, args=(remote.close,)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        server.stop()
        assert errors == []
