"""Simulated client↔server channel: byte/latency accounting and the
wire message codecs."""

from repro.netsim.channel import (
    DIRECTIONS,
    Channel,
    TransferDropped,
    TransferRecord,
)
from repro.netsim.message import MessageDecodeError

__all__ = [
    "Channel",
    "DIRECTIONS",
    "MessageDecodeError",
    "TransferDropped",
    "TransferRecord",
]
