"""Replication: R channels to one server, rotated inside the one retry loop.

``SecureXMLSystem.host(channel=[...])`` stands one ``Server`` behind each
channel.  The contract under test: a failing replica either fails over
to an exact answer or surfaces the typed :class:`QueryFailedError` — a
wrong answer is never an option; a replica caught serving stale state is
benched, resynced off the first fresh answer and re-admitted; and with
one channel none of this machinery runs — the trace, the backoff draws
and the fault schedule are the single-server system's.
"""

from __future__ import annotations

import pytest

from repro.core.system import QueryFailedError, RetryPolicy, SecureXMLSystem
from fault_channel import FaultPolicy, FaultRates, FaultyChannel
from repro.netsim.channel import Channel, TransferDropped
from repro.obs import MetricsRegistry

#: Reads of the process counter total.
metrics = MetricsRegistry()

QUERIES = ("//patient/SSN", "//pname", "//patient/treat/disease")
PROBE = "//patient[pname='Betty']/SSN"

#: span name → trace attribute, as pinned by tests/test_obs.py
STAGES = (
    ("translate", "translate_client_s"),
    ("server", "server_s"),
    ("transfer", "transfer_s"),
    ("decrypt", "decrypt_client_s"),
    ("postprocess", "postprocess_client_s"),
    ("backoff", "backoff_s"),
)


def dead(seed: int = 0) -> FaultyChannel:
    return FaultyChannel(policy=FaultPolicy.symmetric(seed=seed, drop=1.0))


def host(document, constraints, channels, **kwargs) -> SecureXMLSystem:
    return SecureXMLSystem.host(
        document, constraints, scheme="opt", channel=channels, **kwargs
    )


@pytest.fixture
def reference(healthcare_doc, healthcare_scs) -> SecureXMLSystem:
    return SecureXMLSystem.host(healthcare_doc, healthcare_scs, scheme="opt")


# ----------------------------------------------------------------------
# Failover: exact answer or typed error, never something in between
# ----------------------------------------------------------------------
class TestFailover:
    def test_dead_primary_fails_over_exactly(
        self, healthcare_doc, healthcare_scs, reference
    ):
        system = host(healthcare_doc, healthcare_scs, [dead(), Channel()])
        for query in QUERIES:
            assert (
                system.query(query).canonical()
                == reference.query(query).canonical()
            )
        trace = system.last_trace
        assert trace.retries > 0 and trace.drops > 0
        replicas = [
            span.annotations["replica"]
            for span in trace.span.children if span.name == "attempt"
        ]
        assert replicas == [0, 1]

    @pytest.mark.parametrize("rate", [0.2, 0.35])
    def test_seeded_fault_sweep_exact_or_typed(
        self, healthcare_doc, healthcare_scs, reference, rate
    ):
        """Lossy channels to *every* replica: answers stay exact or typed."""
        channels = [
            FaultyChannel(
                policy=FaultPolicy.symmetric(seed=seed, drop=rate, corrupt=rate)
            )
            for seed in (31, 32, 33)
        ]
        system = host(healthcare_doc, healthcare_scs, channels)
        answered = 0
        for query in QUERIES * 3:
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
        system = host(healthcare_doc, healthcare_scs, [dead(0), dead(1)])
        with pytest.raises(QueryFailedError):
            system.query("//patient/SSN")

    def test_one_surviving_replica_suffices(
        self, healthcare_doc, healthcare_scs, reference
    ):
        """One clean replica → exact answers at a harsh rate on the rest."""
        lossy = [
            FaultyChannel(policy=FaultPolicy.symmetric(seed=seed, drop=0.8))
            for seed in (0, 1)
        ]
        system = host(healthcare_doc, healthcare_scs, [*lossy, Channel()])
        for query in QUERIES:
            assert (
                system.query(query).canonical()
                == reference.query(query).canonical()
            )

    def test_direct_naive_query_fails_over(
        self, healthcare_doc, healthcare_scs, reference
    ):
        """One try per replica, no budget: exact off the survivor, and
        the last replica's own error when none survives."""
        system = host(healthcare_doc, healthcare_scs, [dead(), Channel()])
        assert (
            system.naive_query("//patient/SSN").canonical()
            == reference.naive_query("//patient/SSN").canonical()
        )
        assert system.last_trace.attempts == 2
        assert system.last_trace.drops == 1
        system = host(healthcare_doc, healthcare_scs, [dead(0), dead(1)])
        with pytest.raises(TransferDropped):
            system.naive_query("//patient/SSN")

    def test_spans_reconcile_with_trace(self, healthcare_doc, healthcare_scs):
        system = host(healthcare_doc, healthcare_scs, [dead(), Channel()])
        for query in ("//patient/SSN", "//pname"):
            system.query(query)
            trace = system.last_trace
            root = trace.span
            assert root is not None and root.duration_s is not None
            for span_name, attr in STAGES:
                assert root.total(span_name) == pytest.approx(
                    getattr(trace, attr), abs=0.001
                ), span_name


# ----------------------------------------------------------------------
# What the one retry loop gives a replicated query
# ----------------------------------------------------------------------
class TestOneLoop:
    def test_deadline_is_honoured(self, healthcare_doc, healthcare_scs):
        """The sharded path spent 8 attempts and 39 s of modelled backoff
        against this 0.5 s deadline; one loop has one deadline check."""
        policy = RetryPolicy(
            max_attempts=4, base_backoff_s=1.0, max_backoff_s=8.0,
            jitter=0, deadline_s=0.5,
        )
        system = host(
            healthcare_doc, healthcare_scs, [dead(0), dead(1)],
            retry_policy=policy,
        )
        with pytest.raises(QueryFailedError, match="deadline of 0.5s"):
            system.query("//patient/SSN")

    def test_exhausted_plan_fails_typed(self, healthcare_doc, healthcare_scs):
        """The one attempt goes to the dead replica: running out of
        attempts is the typed failure, not a whole-database download
        through the survivor."""
        survivor = Channel()
        system = host(
            healthcare_doc, healthcare_scs, [dead(), survivor],
            retry_policy=RetryPolicy(max_attempts=1),
        )
        for query in QUERIES:
            with pytest.raises(
                QueryFailedError, match="after 1 attempts"
            ) as failed:
                system.query(query)
            assert isinstance(failed.value.__cause__, TransferDropped)
        assert survivor.total_bytes() == 0

    def test_failure_detail_names_the_replica_that_failed_last(
        self, healthcare_doc, healthcare_scs
    ):
        """Replica 0 answers one query cleanly and then dies; replica 1
        corrupts every response.  The last attempt goes to replica 1."""
        clean_then_dead = FaultyChannel()
        corrupting = FaultyChannel(
            policy=FaultPolicy(
                seed=5, server_to_client=FaultRates(corrupt=1.0)
            )
        )
        system = host(
            healthcare_doc, healthcare_scs, [clean_then_dead, corrupting],
        )
        system.query("//pname")
        assert clean_then_dead.last_fault_kind is None
        clean_then_dead.policy = FaultPolicy.symmetric(seed=0, drop=1.0)
        with pytest.raises(QueryFailedError) as excinfo:
            system.query("//patient/SSN")
        assert str(excinfo.value).split("):")[0].endswith("last fault corrupt")


# ----------------------------------------------------------------------
# A replica pinned at an old epoch
# ----------------------------------------------------------------------
class TestStaleReplica:
    def test_demoted_then_resynced_and_readmitted(
        self, healthcare_doc, healthcare_scs, reference
    ):
        pinned = FaultyChannel(policy=FaultPolicy(pin_stale=True))
        system = host(healthcare_doc, healthcare_scs, [pinned, Channel()])
        assert system.query(PROBE).canonical() == reference.query(PROBE).canonical()
        for target in (system, reference):
            target.update_value(PROBE, "987654")

        before = metrics.counter_values()
        assert system.query(PROBE).canonical() == reference.query(PROBE).canonical()
        delta = metrics.counters_delta(before)
        assert delta["replica_demotions"] == delta["replica_resyncs"] == 1
        assert delta["rollback_detected"] == 1
        assert system.last_trace.freshness_failures == 1
        lag = system.observability().metrics.snapshot()["histograms"][
            "replica_epoch_lag"
        ]
        assert lag["count"] == 1 and lag["max"] == 1.0

        # Re-admitted: the next query goes to replica 0 and is fresh.
        before = metrics.counter_values()
        assert system.query(PROBE).canonical() == reference.query(PROBE).canonical()
        assert system.last_trace.attempts == 1
        assert metrics.counters_delta(before)["replica_demotions"] == 0

    def test_one_replica_is_never_benched(
        self, healthcare_doc, healthcare_scs
    ):
        """With no peer there is nowhere to fail over to: nothing is
        demoted, flushed or resynced — the monolith's behaviour."""
        pinned = FaultyChannel(policy=FaultPolicy(pin_stale=True))
        system = host(healthcare_doc, healthcare_scs, [pinned])
        system.query(PROBE)
        system.update_value(PROBE, "987654")
        before = metrics.counter_values()
        with pytest.raises(QueryFailedError):
            system.query(PROBE)
        delta = metrics.counters_delta(before)
        assert delta["replica_demotions"] == delta["replica_resyncs"] == 0
        assert pinned._snapshots  # never resynced

    def test_benching_a_benched_replica_is_a_no_op(
        self, healthcare_doc, healthcare_scs
    ):
        """Two threads' queries can catch the same replica stale: the
        second demotion must neither raise nor empty the rotation."""
        from repro.core.integrity import RollbackDetectedError

        system = host(healthcare_doc, healthcare_scs, [Channel(), Channel()])
        stale = RollbackDetectedError(
            "stale", observed_epoch=0, expected_epoch=1
        )
        rotation = system._active
        before = metrics.counter_values()
        system._demote(0, stale)
        system._demote(0, stale)
        system._demote(1, stale)
        assert system._active == [1]
        assert rotation == [0, 1]  # a reader holding the old list is safe
        assert metrics.counters_delta(before)["replica_demotions"] == 1


# ----------------------------------------------------------------------
# R = 1 is the single-server system
# ----------------------------------------------------------------------
class TestOneReplicaIsTheMonolith:
    def run(self, document, constraints, wrap):
        policy = FaultPolicy.symmetric(seed=7, drop=0.25, corrupt=0.25)
        system = SecureXMLSystem.host(
            document, constraints, scheme="opt",
            channel=wrap(FaultyChannel(policy=policy)),
            retry_policy=RetryPolicy(seed=3),
        )
        traces = []
        for query in QUERIES * 4:
            try:
                system.query(query)
                traces.append(system.last_trace)
            except QueryFailedError as exc:
                traces.append(str(exc))
        return traces, policy.schedule

    def test_identical_trace_and_fault_schedule(
        self, healthcare_doc, healthcare_scs
    ):
        single, single_schedule = self.run(
            healthcare_doc, healthcare_scs, lambda channel: channel
        )
        listed, listed_schedule = self.run(
            healthcare_doc, healthcare_scs, lambda channel: [channel]
        )
        assert single_schedule == listed_schedule and single_schedule
        assert any(
            not isinstance(trace, str) and trace.retries for trace in single
        )
        for one, other in zip(single, listed, strict=True):
            if isinstance(one, str):
                assert one == other
                continue
            for field in (
                "attempts", "retries", "drops", "integrity_failures",
                "backoff_s", "transfer_bytes", "plan",
                "blocks_returned", "answer_count",
            ):
                assert getattr(one, field) == getattr(other, field), field
