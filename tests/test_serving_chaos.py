"""Chaos and rollback sweeps over live sockets (satellite of PR 8).

The serving layer's contract with the netsim fault machinery is
*schedule parity*: the seeded :class:`~repro.netsim.faults.FaultyChannel`
lives in the system on both paths — ``remote_system`` hands the caller's
channel to the remote system, whose exchange faults each sealed payload
before it crosses the socket — so going over TCP must not change a
single RNG draw.  These sweeps run the
exact fault scenarios of ``test_chaos_end_to_end`` and the rollback
scenario of ``test_freshness`` twice per seed — once in process, once
over a real TCP connection — and assert:

* per-query outcomes are identical, seed for seed: the same queries
  answer (byte-identically) and the same queries fail with the typed
  :class:`~repro.core.system.QueryFailedError`;
* the two policies' :meth:`~repro.netsim.faults.FaultPolicy
  .schedule_signature` transcripts are equal — every transfer faulted
  the same way, in the same order, at the same payload size.
"""

import os

import pytest

from repro.core.system import QueryFailedError, SecureXMLSystem
from repro.netsim import FaultPolicy, FaultyChannel
from repro.netsim.faults import FaultRates
from repro.serving import ServingServer, remote_system

QUERIES = (
    "//patient[.//insurance//@coverage>=10000]//SSN",
    "//treat[disease='leukemia']/doctor",
    "//patient[age>36]/pname",
    "//insurance/policy#",
    "//SSN",
)
PROBE = "//patient[pname='Betty']/SSN"

SEEDS = [
    int(token)
    for token in os.environ.get("REPRO_CHAOS_SEEDS", "0,1,2").split(",")
]

SWEEP_RATES = (
    {"corrupt": 0.25},
    {"drop": 0.25},
    {"truncate": 0.25},
    {"drop": 0.2, "corrupt": 0.2, "truncate": 0.1, "duplicate": 0.2,
     "delay": 0.2},
)


def _inprocess_system(doc, scs, policy):
    return SecureXMLSystem.host(
        doc, scs, scheme="opt",
        channel=FaultyChannel(policy=policy),
    )


def _socket_system(doc, scs, policy):
    """A served tenant plus a remote system faulting at the socket."""
    local = SecureXMLSystem.host(doc, scs, scheme="opt")
    server = ServingServer(max_inflight=8)
    server.register_tenant("t0", local)
    remote = remote_system(
        local, server.start(), "t0",
        channel=FaultyChannel(policy=policy),
    )
    return server, remote


def _query_outcomes(system, queries):
    """Canonical answer per query, or the marker for a typed failure."""
    outcomes = []
    for query in queries:
        try:
            outcomes.append(system.query(query).canonical())
        except QueryFailedError:
            outcomes.append("typed-error")
    return outcomes


class TestChaosSweepOverSockets:
    @pytest.mark.parametrize("rates", SWEEP_RATES,
                             ids=lambda r: "+".join(sorted(r)))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_outcomes_and_schedule_as_inprocess(
        self, seed, rates, healthcare_doc, healthcare_scs
    ):
        inproc_policy = FaultPolicy.symmetric(seed=seed, **rates)
        inproc = _inprocess_system(
            healthcare_doc, healthcare_scs, inproc_policy
        )
        expected = _query_outcomes(inproc, QUERIES)

        socket_policy = FaultPolicy.symmetric(seed=seed, **rates)
        server, remote = _socket_system(
            healthcare_doc, healthcare_scs, socket_policy
        )
        try:
            observed = _query_outcomes(remote, QUERIES)
        finally:
            remote.close()
            server.stop()

        assert observed == expected, (seed, rates)
        assert (
            socket_policy.schedule_signature()
            == inproc_policy.schedule_signature()
        ), (seed, rates)


class TestRollbackSweepOverSockets:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_outcomes_and_schedule_as_inprocess(
        self, seed, healthcare_doc, healthcare_scs
    ):
        """The freshness suite's stale-answer replay scenario: record
        pre-update snapshots, commit an update, then query through a
        replay window.  Socket updates travel as sealed commands (no
        transfer draws, like the local mutation) so the rollback
        attacker's snapshot store stays aligned with in-process."""
        def scenario(system):
            outcomes = _query_outcomes(system, QUERIES)
            system.update_value(PROBE, "987654")
            for _ in range(4):
                outcomes.extend(_query_outcomes(system, QUERIES))
            return outcomes

        inproc_policy = FaultPolicy(
            seed=seed, server_to_client=FaultRates(rollback=0.35)
        )
        expected = scenario(
            _inprocess_system(healthcare_doc, healthcare_scs, inproc_policy)
        )

        socket_policy = FaultPolicy(
            seed=seed, server_to_client=FaultRates(rollback=0.35)
        )
        server, remote = _socket_system(
            healthcare_doc, healthcare_scs, socket_policy
        )
        try:
            observed = scenario(remote)
        finally:
            remote.close()
            server.stop()

        assert observed == expected, seed
        assert (
            socket_policy.schedule_signature()
            == inproc_policy.schedule_signature()
        ), seed
        # The scenario is an *attack* by construction: the schedule must
        # actually have substituted at least one stale snapshot.
        assert any(
            entry[2] == "rollback"
            for entry in socket_policy.schedule_signature()
        ), seed

    def test_faultless_transport_is_transparent(
        self, healthcare_doc, healthcare_scs
    ):
        """A FaultyChannel with zero rates at the socket boundary must
        change nothing — and record zero faults."""
        policy = FaultPolicy()
        server, remote = _socket_system(
            healthcare_doc, healthcare_scs, policy
        )
        reference = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        try:
            for query in QUERIES:
                assert (
                    remote.query(query).canonical()
                    == reference.query(query).canonical()
                )
                assert remote.last_trace.retries == 0
        finally:
            remote.close()
            server.stop()
