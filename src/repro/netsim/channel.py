"""A modelled network channel between client and server.

The paper ran on a 100 Mbps LAN and found transmission time "negligible
comparing with other time factors" (§7.2); we reproduce the experiments on
one host, so instead of measuring a real wire we *model* it: every payload
that crosses the channel costs a modelled wall time of

    latency + bytes * 8 / bandwidth

with the paper's 100 Mbps as the default.  The channel keeps no record of
its own: each transfer that arrives hangs a ``transfer`` span (direction,
label, bytes, modelled seconds) under the caller's open span, so a query's
wire cost is read off its root like every other stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.span import current, span

#: The two documented transfer directions; anything else is a caller bug.
DIRECTIONS = ("client->server", "server->client")


class TransferDropped(Exception):
    """A payload did not arrive (modelled packet loss, or a front door
    that refused it).  Retryable: the system's backoff loop absorbs it."""


@dataclass
class Channel:
    """The bandwidth/latency model of one client↔server session."""

    bandwidth_bits_per_second: float = 100_000_000.0  # the paper's 100 Mbps
    latency_seconds: float = 0.0002

    def wire_seconds(self, direction: str, size_bytes: int) -> float:
        """Modelled wire time of ``size_bytes`` crossing in ``direction``."""
        if direction not in DIRECTIONS:
            raise ValueError(
                f"unknown transfer direction {direction!r}; "
                f"expected one of {DIRECTIONS}"
            )
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        return (
            self.latency_seconds
            + size_bytes * 8.0 / self.bandwidth_bits_per_second
        )

    def transfer(
        self, direction: str, label: str, payload: bytes
    ) -> tuple[bytes, float]:
        """Carry an actual payload across the wire.

        The base channel is a perfect wire: it models the transfer's time
        and returns the payload unchanged.  A subclass may drop the
        payload (raising :class:`TransferDropped`), delay, corrupt,
        truncate or duplicate it — the chaos tests' fault channel does —
        which is why the query pipeline ships real bytes through here
        rather than just sizes.
        """
        seconds = self.wire_seconds(direction, len(payload))
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
