"""Fault injection and byte accounting at the socket boundary.

In-process, every sealed payload crosses the system's
:class:`~repro.netsim.channel.Channel` exactly once per direction, and
chaos testing swaps in a :class:`~repro.netsim.faults.FaultyChannel`
whose seeded schedule decides per transfer whether to drop, delay,
corrupt, truncate, duplicate or roll back.  The serving layer keeps that
contract by moving the *same* channel object to the client end of the
socket:

* outbound (``client->server``) — the request payload passes through
  ``channel.transfer`` **before** it is framed and sent, so a corrupted
  or truncated request genuinely crosses the wire mangled and a dropped
  one never leaves the process (exactly like the in-process raise);
* inbound (``server->client``) — each ``OP_OK`` response payload
  passes through on arrival, in arrival order.

``OP_ERROR`` and control frames bypass the transport: in-process, a
server-raised typed error propagates as an exception and produces *no*
server→client transfer, so faulting error frames would desynchronize
the seeded schedule.  Likewise only the sealed payload is faulted,
never the frame header — that is transport metadata the in-process path
doesn't have, and the per-transfer RNG draws depend on payload size.

With the default :class:`~repro.netsim.channel.Channel` the transport
is pure accounting (every byte billed once, no faults); with a
:class:`~repro.netsim.channel.NullChannel` it is free; with a
:class:`~repro.netsim.faults.FaultyChannel` the entire chaos and
rollback suite runs over live sockets with schedules identical to the
in-process runs, seed for seed.
"""

from __future__ import annotations

from repro.netsim.channel import Channel

from repro.serving.errors import BackpressureRejected, ServerDraining

__all__ = [
    "AsyncFaultTransport",
    "BackpressureRejected",
    "ServerDraining",
]


class AsyncFaultTransport:
    """Applies a netsim channel to the payloads crossing one socket.

    Despite the name this class has no awaitables of its own — the
    channel calls are synchronous and cheap (the modelled delay is
    *recorded*, never slept) — but it is only ever driven from the async
    client, one call at a time on the event loop, which is what keeps a
    ``FaultyChannel``'s stateful schedule (its RNG and rollback
    snapshot store) race-free without any locking.
    """

    def __init__(self, channel: Channel | None = None) -> None:
        self.channel = channel if channel is not None else Channel()

    def outbound(self, label: str, payload: bytes) -> bytes:
        """Fault/account a request payload about to be framed and sent.

        Raises :class:`~repro.netsim.faults.TransferDropped` when the
        schedule drops it — before any bytes reach the socket.
        """
        faulted, _ = self.channel.transfer("client->server", label, payload)
        return faulted

    def inbound(self, label: str, payload: bytes) -> bytes:
        """Fault/account a response payload that just arrived."""
        faulted, _ = self.channel.transfer("server->client", label, payload)
        return faulted
