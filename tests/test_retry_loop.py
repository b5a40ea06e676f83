"""The one retry loop, over one channel to the one server.

A faulty channel either lets the loop reach the exact answer or makes it
surface the typed :class:`QueryFailedError` — a wrong answer is never an
option.  The loop has one deadline, runs out of attempts typed (never by
downloading the database), records spans that reconcile with the trace,
and names the last fault it met in its error text.
"""

from __future__ import annotations

import pytest

from repro.core.system import QueryFailedError, RetryPolicy, SecureXMLSystem
from fault_channel import FaultPolicy, FaultRates, FaultyChannel
from repro.netsim.channel import TransferDropped

QUERIES = ("//patient/SSN", "//pname", "//patient/treat/disease")

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


def host(document, constraints, channel, **kwargs) -> SecureXMLSystem:
    return SecureXMLSystem.host(
        document, constraints, scheme="opt", channel=channel, **kwargs
    )


@pytest.fixture
def reference(healthcare_doc, healthcare_scs) -> SecureXMLSystem:
    return SecureXMLSystem.host(healthcare_doc, healthcare_scs, scheme="opt")


# ----------------------------------------------------------------------
# Exact answer or typed error, never something in between
# ----------------------------------------------------------------------
class TestFaultedChannel:
    @pytest.mark.parametrize("rate", [0.2, 0.35])
    def test_seeded_fault_sweep_exact_or_typed(
        self, healthcare_doc, healthcare_scs, reference, rate
    ):
        """A lossy, corrupting channel: answers stay exact or typed."""
        for seed in (31, 32, 33):
            channel = FaultyChannel(
                policy=FaultPolicy.symmetric(
                    seed=seed, drop=rate, corrupt=rate
                )
            )
            system = host(healthcare_doc, healthcare_scs, channel)
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
            assert answered > 0, f"seed {seed}: every exchange failed"

    def test_a_dead_channel_raises_typed_error(
        self, healthcare_doc, healthcare_scs
    ):
        """Planned and naive reads alike: a typed failure, the drop as
        its cause."""
        system = host(healthcare_doc, healthcare_scs, dead())
        for read in (system.query, system.naive_query):
            with pytest.raises(QueryFailedError) as failed:
                read("//patient/SSN")
            assert isinstance(failed.value.__cause__, TransferDropped)

    def test_spans_reconcile_with_trace(self, healthcare_doc, healthcare_scs):
        channel = FaultyChannel(
            policy=FaultPolicy.symmetric(seed=4, drop=0.3)
        )
        system = host(
            healthcare_doc, healthcare_scs, channel,
            retry_policy=RetryPolicy(max_attempts=8),
        )
        retried = 0
        for query in QUERIES * 2:
            system.query(query)
            trace = system.last_trace
            retried += trace.retries
            root = trace.span
            assert root is not None and root.duration_s is not None
            for span_name, attr in STAGES:
                assert root.total(span_name) == pytest.approx(
                    getattr(trace, attr), abs=0.001
                ), span_name
        assert retried > 0


# ----------------------------------------------------------------------
# What the one loop gives a query
# ----------------------------------------------------------------------
class TestOneLoop:
    def test_deadline_is_honoured(self, healthcare_doc, healthcare_scs):
        """Four attempts would spend 7 s of modelled backoff; the loop
        stops at the 0.5 s deadline."""
        policy = RetryPolicy(
            max_attempts=4, base_backoff_s=1.0, max_backoff_s=8.0,
            jitter=0, deadline_s=0.5,
        )
        system = host(
            healthcare_doc, healthcare_scs, dead(), retry_policy=policy
        )
        with pytest.raises(QueryFailedError, match="deadline of 0.5s"):
            system.query("//patient/SSN")

    def test_exhausted_plan_fails_typed(self, healthcare_doc, healthcare_scs):
        """Running out of attempts is the typed failure, not a
        whole-database download: one request crosses per query, and no
        response."""
        channel = dead()
        system = host(
            healthcare_doc, healthcare_scs, channel,
            retry_policy=RetryPolicy(max_attempts=1),
        )
        for query in QUERIES:
            with pytest.raises(
                QueryFailedError, match="after 1 attempts"
            ) as failed:
                system.query(query)
            assert isinstance(failed.value.__cause__, TransferDropped)
        assert [direction for direction, _ in channel.billed] == [
            "client->server"
        ] * len(QUERIES)

    def test_failure_detail_names_the_last_fault(
        self, healthcare_doc, healthcare_scs
    ):
        """The channel answers one query cleanly, then drops everything,
        then corrupts every response: each failure names the fault it
        met last."""
        channel = FaultyChannel()
        system = host(healthcare_doc, healthcare_scs, channel)
        system.query("//pname")
        assert channel.last_fault_kind is None
        for policy, kind in (
            (FaultPolicy.symmetric(seed=0, drop=1.0), "drop"),
            (
                FaultPolicy(seed=5, server_to_client=FaultRates(corrupt=1.0)),
                "corrupt",
            ),
        ):
            channel.policy = policy
            with pytest.raises(QueryFailedError) as excinfo:
                system.query("//patient/SSN")
            detail = str(excinfo.value).split("):")[0]
            assert detail.endswith(f"last fault {kind}"), detail
