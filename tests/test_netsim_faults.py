"""Unit tests for the deterministic fault-injection layer."""

import pytest

from fault_channel import FaultPolicy, FaultRates, FaultyChannel
from repro.netsim import TransferDropped

#: Traffic pattern used by the determinism tests: (direction, size).
TRAFFIC = [
    ("client->server", 120),
    ("server->client", 4096),
    ("client->server", 120),
    ("server->client", 900),
    ("client->server", 64),
    ("server->client", 12000),
] * 10


def run_traffic(policy: FaultPolicy) -> list[str]:
    """Drive a FaultyChannel with the fixed traffic; summarize outcomes."""
    channel = FaultyChannel(policy=policy)
    outcomes = []
    for direction, size in TRAFFIC:
        payload = bytes(i % 256 for i in range(size))
        try:
            delivered, _ = channel.transfer(direction, "t", payload)
        except TransferDropped:
            outcomes.append("dropped")
            continue
        if delivered == payload:
            outcomes.append("clean")
        elif len(delivered) < len(payload):
            outcomes.append("truncated")
        else:
            outcomes.append("corrupted")
    return outcomes


class TestFaultRates:
    def test_defaults_are_zero(self):
        rates = FaultRates()
        assert not rates.any

    @pytest.mark.parametrize("name", ["drop", "corrupt", "truncate",
                                      "duplicate", "delay"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_out_of_range_rejected(self, name, bad):
        with pytest.raises(ValueError, match=name):
            FaultRates(**{name: bad})

    def test_any_detects_each_rate(self):
        for name in ("drop", "corrupt", "truncate", "duplicate", "delay"):
            assert FaultRates(**{name: 0.3}).any


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        first = FaultPolicy.symmetric(seed=42, drop=0.2, corrupt=0.3,
                                      truncate=0.1, delay=0.2, duplicate=0.1)
        second = FaultPolicy.symmetric(seed=42, drop=0.2, corrupt=0.3,
                                       truncate=0.1, delay=0.2, duplicate=0.1)
        assert run_traffic(first) == run_traffic(second)
        assert first.schedule_signature() == second.schedule_signature()
        assert first.schedule_signature()  # the rates do fire at these sizes

    def test_different_seed_different_schedule(self):
        first = FaultPolicy.symmetric(seed=1, drop=0.3, corrupt=0.3)
        second = FaultPolicy.symmetric(seed=2, drop=0.3, corrupt=0.3)
        run_traffic(first)
        run_traffic(second)
        assert first.schedule_signature() != second.schedule_signature()

    def test_zero_rates_consume_no_randomness(self):
        """A quiet direction must not shift the other direction's draws."""
        noisy = FaultRates(drop=0.5, corrupt=0.5)
        asym = FaultPolicy(seed=9, server_to_client=noisy)
        sym_reference = FaultPolicy(seed=9, server_to_client=noisy)
        # Interleave extra client->server (faultless) traffic in one run.
        channel = FaultyChannel(policy=asym)
        reference = FaultyChannel(policy=sym_reference)

        def attempt(target, direction, payload):
            try:
                target.transfer(direction, "t", payload)
            except TransferDropped:
                pass

        for size in (100, 200, 300):
            attempt(channel, "client->server", b"x" * 50)
            attempt(channel, "server->client", b"y" * size)
            attempt(reference, "server->client", b"y" * size)
        assert [
            (e.direction, e.kind, e.detail) for e in asym.schedule
        ] == [
            (e.direction, e.kind, e.detail) for e in sym_reference.schedule
        ]


class TestFaultyChannelBehaviour:
    def test_no_faults_is_passthrough(self):
        channel = FaultyChannel(policy=FaultPolicy())
        payload, seconds = channel.transfer("client->server", "q", b"hello")
        assert payload == b"hello"
        assert seconds > 0.0
        assert channel.total_bytes() == 5

    def test_drop_raises_and_still_bills_bytes(self):
        policy = FaultPolicy.symmetric(seed=0, drop=1.0)
        channel = FaultyChannel(policy=policy)
        with pytest.raises(TransferDropped):
            channel.transfer("client->server", "q", b"hello")
        assert channel.total_bytes() == 5  # the wire still carried it

    def test_corrupt_flips_exactly_one_byte(self):
        policy = FaultPolicy.symmetric(seed=3, corrupt=1.0)
        channel = FaultyChannel(policy=policy)
        original = bytes(range(256))
        delivered, _ = channel.transfer("server->client", "a", original)
        assert len(delivered) == len(original)
        differing = [
            i for i, (a, b) in enumerate(zip(original, delivered)) if a != b
        ]
        assert len(differing) == 1

    def test_truncate_shortens_payload(self):
        policy = FaultPolicy.symmetric(seed=5, truncate=1.0)
        channel = FaultyChannel(policy=policy)
        delivered, _ = channel.transfer("server->client", "a", b"z" * 100)
        assert len(delivered) < 100

    def test_duplicate_bills_twice(self):
        policy = FaultPolicy.symmetric(seed=0, duplicate=1.0)
        channel = FaultyChannel(policy=policy)
        delivered, _ = channel.transfer("client->server", "q", b"q" * 10)
        assert delivered == b"q" * 10  # idempotent for request/response
        assert channel.total_bytes() == 20

    def test_delay_adds_modelled_seconds(self):
        quiet = FaultyChannel(policy=FaultPolicy())
        _, base = quiet.transfer("client->server", "q", b"q" * 10)
        delayed = FaultyChannel(
            policy=FaultPolicy.symmetric(seed=0, delay=1.0)
        )
        _, slowed = delayed.transfer("client->server", "q", b"q" * 10)
        assert slowed == pytest.approx(base + delayed.policy.delay_seconds)

    def test_direction_validation_applies(self):
        with pytest.raises(ValueError, match="direction"):
            FaultyChannel(policy=FaultPolicy()).transfer("diag", "q", b"x")

    def test_schedule_records_transfer_indices(self):
        policy = FaultPolicy.symmetric(seed=1, drop=1.0)
        channel = FaultyChannel(policy=policy)
        for index in range(3):
            with pytest.raises(TransferDropped):
                channel.transfer("client->server", "q", b"x")
        assert [e.transfer_index for e in policy.schedule] == [0, 1, 2]
        assert all(e.kind == "drop" for e in policy.schedule)
