"""Unit tests for the modelled network channel."""

import pytest

from repro.netsim import DIRECTIONS, Channel
from repro.obs.span import span


def transfer_spans(root):
    """``(direction, bytes, seconds)`` of every transfer under ``root``."""
    return [
        (s.annotations["direction"], s.annotations["bytes"], s.duration_s)
        for s in root.iter()
        if s.name == "transfer"
    ]


class TestChannel:
    def test_modelled_time_formula(self):
        channel = Channel(
            bandwidth_bits_per_second=1_000_000, latency_seconds=0.01
        )
        _, seconds = channel.transfer("client->server", "q", b"x" * 125_000)
        assert seconds == pytest.approx(0.01 + 1.0)  # 1 Mbit

    def test_default_is_paper_lan(self):
        channel = Channel()
        assert channel.bandwidth_bits_per_second == 100_000_000.0

    def test_transfer_log_accumulates(self):
        """The transfer log is the ``transfer`` spans under the open root."""
        channel = Channel()
        with span("query") as root:
            channel.transfer("client->server", "q", b"q" * 100)
            channel.transfer("server->client", "a", b"a" * 400)
        assert [size for _, size, _ in transfer_spans(root)] == [100, 400]
        assert sum(size for _, size, _ in transfer_spans(root)) == 500

    def test_total_seconds_by_direction(self):
        channel = Channel(latency_seconds=1.0, bandwidth_bits_per_second=8.0)
        with span("query") as root:
            channel.transfer("client->server", "q", b"q")  # 1 + 1 = 2s
            channel.transfer("server->client", "a", b"aa")  # 1 + 2 = 3s
        assert root.total("transfer") == pytest.approx(5.0)
        assert sum(
            seconds for direction, _, seconds in transfer_spans(root)
            if direction == "client->server"
        ) == pytest.approx(2.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Channel().wire_seconds("client->server", -1)

    def test_lan_transfer_negligible(self):
        """The §7.2 observation: at 100 Mbps the wire time is tiny."""
        _, seconds = Channel().transfer("server->client", "a", b"a" * 50_000)
        assert seconds < 0.005  # a 50 KB answer

    def test_a_channel_keeps_no_state_across_queries(
        self, healthcare_doc, healthcare_scs
    ):
        """Nothing accumulates on a plain channel: after 200 queries it
        is field for field a fresh one, and each query's transfers are
        on its own root."""
        from repro.core.system import SecureXMLSystem

        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        for index in range(200):
            system.query(("//SSN", "//patient/pname")[index % 2])
        assert vars(system.channel) == vars(Channel())
        directions = [d for d, _, _ in transfer_spans(system.last_trace.span)]
        assert directions == list(DIRECTIONS)


class TestDirectionValidation:
    def test_documented_directions_accepted(self):
        channel = Channel()
        with span("query") as root:
            for direction in DIRECTIONS:
                channel.transfer(direction, "q", b"q")
        assert [d for d, _, _ in transfer_spans(root)] == list(DIRECTIONS)

    @pytest.mark.parametrize(
        "direction",
        ["sideways", "client<-server", "CLIENT->SERVER", "", "server->server"],
    )
    def test_unknown_direction_rejected(self, direction):
        with pytest.raises(ValueError, match="direction"):
            Channel().wire_seconds(direction, 1)

    def test_transfer_validates_direction_too(self):
        with pytest.raises(ValueError, match="direction"):
            Channel().transfer("upwards", "q", b"payload")

    def test_rejected_send_records_nothing(self):
        channel = Channel()
        with span("query") as root:
            with pytest.raises(ValueError):
                channel.transfer("sideways", "q", b"q" * 10)
        assert transfer_spans(root) == []

    def test_transfer_returns_payload_and_modelled_time(self):
        channel = Channel(latency_seconds=1.0, bandwidth_bits_per_second=8.0)
        payload, seconds = channel.transfer("client->server", "q", b"x")
        assert payload == b"x"
        assert seconds == pytest.approx(2.0)  # 1s latency + 1 byte at 1 B/s
