"""Simulated client↔server channel: byte/latency accounting, wire message
codecs, and deterministic fault injection for chaos testing."""

from repro.netsim.channel import (
    DIRECTIONS,
    Channel,
    TransferRecord,
)
from repro.netsim.faults import (
    FaultEvent,
    FaultPolicy,
    FaultRates,
    FaultyChannel,
    TransferDropped,
)
from repro.netsim.message import MessageDecodeError

__all__ = [
    "Channel",
    "DIRECTIONS",
    "FaultEvent",
    "FaultPolicy",
    "FaultRates",
    "FaultyChannel",
    "MessageDecodeError",
    "TransferDropped",
    "TransferRecord",
]
