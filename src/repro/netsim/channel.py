"""A modelled network channel between client and server.

The paper ran on a 100 Mbps LAN and found transmission time "negligible
comparing with other time factors" (§7.2); we reproduce the experiments on
one host, so instead of measuring a real wire we *model* it: every payload
that crosses the channel is counted, and the modelled wall time is

    latency + bytes * 8 / bandwidth

with the paper's 100 Mbps as the default.  Benchmarks report this modelled
transfer time alongside the measured CPU times, which keeps the Fig. 9-style
breakdowns faithful (transfer is indeed negligible at LAN speeds) while
still letting the harness explore slower links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.span import current, span

#: The two documented transfer directions; anything else is a caller bug.
DIRECTIONS = ("client->server", "server->client")


@dataclass(frozen=True)
class TransferRecord:
    """One payload crossing the channel."""

    direction: str  # "client->server" or "server->client"
    label: str
    size_bytes: int
    modelled_seconds: float


@dataclass
class Channel:
    """Byte/latency accounting for one client↔server session."""

    bandwidth_bits_per_second: float = 100_000_000.0  # the paper's 100 Mbps
    latency_seconds: float = 0.0002
    transfers: list[TransferRecord] = field(default_factory=list)

    def send(self, direction: str, label: str, size_bytes: int) -> float:
        """Record a transfer; returns the modelled wire time in seconds."""
        if direction not in DIRECTIONS:
            raise ValueError(
                f"unknown transfer direction {direction!r}; "
                f"expected one of {DIRECTIONS}"
            )
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        seconds = (
            self.latency_seconds
            + size_bytes * 8.0 / self.bandwidth_bits_per_second
        )
        self.transfers.append(
            TransferRecord(direction, label, size_bytes, seconds)
        )
        return seconds

    def transfer(
        self, direction: str, label: str, payload: bytes
    ) -> tuple[bytes, float]:
        """Carry an actual payload across the wire.

        The base channel is a perfect wire: it accounts for the bytes and
        returns the payload unchanged.  :class:`~repro.netsim.faults
        .FaultyChannel` overrides this to drop, delay, corrupt, truncate
        or duplicate the payload — which is why the query pipeline ships
        real bytes through here rather than just sizes.
        """
        seconds = self.send(direction, label, len(payload))
        self.observe_transfer(direction, label, len(payload), seconds)
        return payload, seconds

    def observe_transfer(
        self, direction: str, label: str, size_bytes: int, seconds: float
    ) -> None:
        """Hang one completed transfer under the caller's open span.

        A ``transfer`` span whose duration is the *modelled* wire time
        (nothing here sleeps): ``QueryTrace.transfer_s`` is their sum.
        Dropped transfers never get here.
        """
        if current() is not None:
            span(
                "transfer", direction=direction, label=label, bytes=size_bytes
            ).set_duration(seconds)

    def total_bytes(self, direction: str | None = None) -> int:
        """Bytes moved, optionally filtered by direction."""
        return sum(
            record.size_bytes
            for record in self.transfers
            if direction is None or record.direction == direction
        )

    def total_seconds(self, direction: str | None = None) -> float:
        """Modelled wire time, optionally filtered by direction."""
        return sum(
            record.modelled_seconds
            for record in self.transfers
            if direction is None or record.direction == direction
        )

    def reset(self) -> None:
        """Clear the transfer log (benchmarks do this between queries)."""
        self.transfers.clear()
