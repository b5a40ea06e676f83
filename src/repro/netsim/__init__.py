"""Simulated client↔server channel: the bandwidth/latency model whose
transfers land as ``transfer`` spans, and the wire message codecs."""

from repro.netsim.channel import DIRECTIONS, Channel, TransferDropped
from repro.netsim.message import MessageDecodeError

__all__ = [
    "Channel",
    "DIRECTIONS",
    "MessageDecodeError",
    "TransferDropped",
]
