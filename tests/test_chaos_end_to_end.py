"""Chaos tests: the full query path under an actively faulty wire.

The invariant under test is the hardening contract: whatever the fault
rates, a query either returns the **exact** answer (matching plaintext
XPath evaluation) or raises a **typed** error — never a silently wrong
or partial answer.  Corruption is detected by the integrity envelope,
drops are absorbed by retry/backoff, persistent failure is a typed
``QueryFailedError``, and everything is deterministic in the fault seed.
"""

import os

import pytest

from repro.core.client import canonical_node
from repro.core.integrity import RollbackDetectedError, TamperedResponseError
from repro.core.system import (
    QueryFailedError,
    RetryPolicy,
    SecureXMLSystem,
)
from fault_channel import FaultPolicy, FaultRates, FaultyChannel
from updates_oracle import write_plaintext
from repro.obs import MetricsRegistry
from repro.workloads.healthcare import build_healthcare_database
from repro.xpath.evaluator import evaluate

#: Reads of the process counter total.
metrics = MetricsRegistry()

QUERIES = (
    "//patient[.//insurance//@coverage>=10000]//SSN",
    "//treat[disease='leukemia']/doctor",
    "//patient[age>36]/pname",
    "//insurance/policy#",
    "//SSN",
)

#: Fault seeds for the sweep; CI widens this via REPRO_CHAOS_SEEDS.
SEEDS = [
    int(token)
    for token in os.environ.get("REPRO_CHAOS_SEEDS", "0,1,2").split(",")
]

#: ≥20% fault probability per transfer, per the acceptance criterion.
SWEEP_RATES = (
    {"corrupt": 0.25},
    {"drop": 0.25},
    {"truncate": 0.25},
    {"drop": 0.2, "corrupt": 0.2, "truncate": 0.1, "duplicate": 0.2,
     "delay": 0.2},
)


#: A leaf no query of :data:`QUERIES` reads.  Four of their five planned
#: reads ship no block holding it, so their kept answers outlive a write
#: to it.
UNRELATED_LEAF = "//patient[pname='Betty']/treat[doctor='Walker']/disease"


def expected_answer(document, query):
    return sorted(canonical_node(n) for n in evaluate(document, query))


def host_with_faults(document, constraints, policy, **kwargs):
    return SecureXMLSystem.host(
        document,
        constraints,
        scheme="opt",
        channel=FaultyChannel(policy=policy),
        **kwargs,
    )


class TestFaultSweep:
    @pytest.mark.parametrize("rates", SWEEP_RATES,
                             ids=lambda r: "+".join(sorted(r)))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_answer_or_typed_error(
        self, seed, rates, healthcare_doc, healthcare_scs
    ):
        policy = FaultPolicy.symmetric(seed=seed, **rates)
        system = host_with_faults(healthcare_doc, healthcare_scs, policy)
        plaintext = build_healthcare_database()
        answered = writes = 0
        # The §7.3 baseline crosses the same faulty exchange as a
        # planned read, and owes the same outcome.  Three reads in a row:
        # fragments that come back verified a third time are answered
        # from the client's answer memo, and owe the same outcome too —
        # across the unrelated write before the third read, which a
        # planned read's kept answer outlives.
        for query in QUERIES:
            for read in (system.query, system.naive_query):
                for sight in range(3):
                    if sight == 2:
                        writes += 1
                        value = f"flu{writes}"
                        system.update_value(UNRELATED_LEAF, value)
                        write_plaintext(
                            plaintext, "update_value", UNRELATED_LEAF, value
                        )
                    try:
                        answer = read(query)
                    except QueryFailedError:
                        continue  # typed failure is an allowed outcome
                    answered += 1
                    assert answer.canonical() == expected_answer(
                        plaintext, query
                    ), (seed, rates, query, read.__name__, sight)
        # The retry layer must be doing real work: across the sweep the
        # rates are high enough that a no-retry pipeline could not answer
        # everything cleanly, yet most queries should still succeed.
        assert answered >= 1

    def test_a_replayed_pre_write_response_is_refused_not_recalled(
        self, healthcare_doc, healthcare_scs
    ):
        """The memo is consulted only after verification: the third read
        gets the exact pre-write bytes the memo's copies were keyed by,
        and is refused typed on every attempt."""
        policy = FaultPolicy(server_to_client=FaultRates(rollback=1.0))
        system = host_with_faults(healthcare_doc, healthcare_scs, policy)
        query = "//patient/pname"
        for _ in range(2):  # the second sight keeps the answer's copies
            assert system.query(query).values() == ["Betty", "Matt"]
        system.update_value("//patient[pname='Matt']/pname", "Matthew")
        before = metrics.counter_values()
        with pytest.raises(QueryFailedError) as failure:
            system.query(query)
        assert isinstance(failure.value.__cause__, RollbackDetectedError)
        delta = metrics.counters_delta(before)
        assert delta["faults_rolled_back"] == delta["rollback_detected"] > 0
        assert delta["answer_memo_hits"] == delta["answer_memo_misses"] == 0
        system.channel.resync()  # the server catches up
        assert system.query(query).values() == ["Betty", "Matthew"]

    def test_faultless_faulty_channel_is_transparent(
        self, healthcare_doc, healthcare_scs
    ):
        system = host_with_faults(
            healthcare_doc, healthcare_scs, FaultPolicy()
        )
        for query in QUERIES:
            assert system.query(query).canonical() == expected_answer(
                healthcare_doc, query
            )
            assert system.last_trace.retries == 0

    def test_drop_heavy_wire_still_answers_with_retries(
        self, healthcare_doc, healthcare_scs
    ):
        policy = FaultPolicy.symmetric(seed=8, drop=0.3)
        system = host_with_faults(healthcare_doc, healthcare_scs, policy)
        before = metrics.counter_values()
        results = {}
        for query in QUERIES:
            try:
                results[query] = system.query(query).canonical()
            except QueryFailedError:
                results[query] = None
        delta = metrics.counters_delta(before)
        assert delta["faults_dropped"] > 0
        assert delta["query_retries"] > 0
        for query, result in results.items():
            if result is not None:
                assert result == expected_answer(healthcare_doc, query)

    def test_batch_api_under_faults(self, healthcare_doc, healthcare_scs):
        policy = FaultPolicy.symmetric(seed=3, corrupt=0.2, drop=0.1)
        system = host_with_faults(healthcare_doc, healthcare_scs, policy)
        try:
            answers = system.execute_many(list(QUERIES))
        except QueryFailedError:
            return  # allowed; per-query behaviour covered above
        for query, answer in zip(QUERIES, answers):
            assert answer.canonical() == expected_answer(
                healthcare_doc, query
            )
        assert len(system.last_batch_traces) == len(QUERIES)


class TestDeterminism:
    def run_once(self, document, constraints, seed, **host_kwargs):
        policy = FaultPolicy.symmetric(
            seed=seed, drop=0.2, corrupt=0.2, truncate=0.1
        )
        system = host_with_faults(
            document, constraints, policy, **host_kwargs
        )
        outcomes = []
        for query in QUERIES:
            try:
                system.query(query)
                trace = system.last_trace
                outcomes.append(
                    (query, trace.attempts, trace.retries,
                     trace.integrity_failures, trace.drops, trace.plan)
                )
            except QueryFailedError as exc:
                outcomes.append((query, "failed", str(exc)))
        return policy.schedule_signature(), outcomes

    def test_same_seed_identical_schedule_and_traces(
        self, healthcare_doc, healthcare_scs
    ):
        first = self.run_once(healthcare_doc, healthcare_scs, seed=11)
        second = self.run_once(healthcare_doc, healthcare_scs, seed=11)
        assert first == second

    def test_different_seed_differs(self, healthcare_doc, healthcare_scs):
        first = self.run_once(healthcare_doc, healthcare_scs, seed=11)
        second = self.run_once(healthcare_doc, healthcare_scs, seed=12)
        assert first[0] != second[0]

    def test_fault_schedule_unchanged_by_fetch_countermeasures(
        self, healthcare_doc, healthcare_scs
    ):
        """Padding/decoy fetches stay below the wire.

        Cover traffic reads ciphertext the server already stores — it
        must consume nothing from the fault schedule's stream, so the
        same seed replays the exact same faults and outcomes with the
        countermeasures on.  Its own determinism is covered in
        test_leakage.py.
        """
        plain = self.run_once(healthcare_doc, healthcare_scs, seed=11)
        padded = self.run_once(
            healthcare_doc,
            healthcare_scs,
            seed=11,
            leakage=True,
        )
        assert plain == padded


class TestWireTampering:
    @pytest.fixture
    def system(self, healthcare_doc, healthcare_scs):
        return SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )

    def test_every_byte_of_a_real_response_is_protected(self, system):
        """Byte-level sweep over an actual sealed server response."""
        translated = system.client.translate(QUERIES[0])
        request = system.client.seal_request(translated, cache_key=QUERIES[0])
        sealed = system.server.answer_wire(request)
        for offset in range(len(sealed)):
            mutated = bytearray(sealed)
            mutated[offset] ^= 0x01
            with pytest.raises(TamperedResponseError):
                system.client.open_response(bytes(mutated))

    def test_no_fallback_policy_raises_typed_error(self, system):
        """A server that always mangles the answer exhausts the retries:
        the query fails typed rather than downloading the database
        through that same server."""
        real_answer_wire = system.server.answer_wire

        def mangled(request_blob):
            blob = bytearray(real_answer_wire(request_blob))
            blob[40] ^= 0x10
            return bytes(blob)

        system.server.answer_wire = mangled
        before = metrics.counter_values()
        with pytest.raises(QueryFailedError) as failed:
            system.query(QUERIES[0])
        assert isinstance(failed.value.__cause__, TamperedResponseError)
        delta = metrics.counters_delta(before)
        assert delta["queries_failed"] == 1
        assert delta["integrity_failures"] == (
            system.retry_policy.max_attempts
        )
        assert delta["query_retries"] == system.retry_policy.max_attempts - 1

    def test_deadline_exceeded_raises_typed_error(
        self, healthcare_doc, healthcare_scs
    ):
        system = SecureXMLSystem.host(
            healthcare_doc,
            healthcare_scs,
            scheme="opt",
            retry_policy=RetryPolicy(deadline_s=0.0),
        )
        with pytest.raises(QueryFailedError, match="deadline"):
            system.query(QUERIES[0])
