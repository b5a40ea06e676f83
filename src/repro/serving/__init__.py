"""Async socket serving: the multi-tenant front door (PR 8).

Stands the secure query pipeline up behind real TCP sockets on an
``asyncio`` event loop without changing a byte of its security
behaviour: requests and responses cross the wire as the same sealed
payloads the in-process channel carries, every verification step runs
in the unmodified owner-side code, and the netsim fault layer plugs in
at the socket boundary so the chaos and rollback suites replay their
seeded schedules over live connections.  See ``docs/SERVING.md``.
"""

from repro.serving.client import (
    AsyncServingClient,
    RemoteSecureXMLSystem,
    RemoteServer,
    ServingConnection,
    remote_system,
)
from repro.serving.errors import (
    BackpressureRejected,
    ProtocolError,
    RemoteServerError,
    RequestTimeoutError,
    ServerDraining,
    ServingError,
    UnknownTenantError,
    decode_error,
    encode_error,
)
from repro.serving.framing import (
    ConnectionClosedError,
    FrameError,
    decode_frame,
    encode_frame,
)
from repro.serving.loadgen import LoadReport, run_load
from repro.serving.server import ServingServer, TenantSession
from repro.serving.transport import AsyncFaultTransport

__all__ = [
    "AsyncFaultTransport",
    "AsyncServingClient",
    "BackpressureRejected",
    "ConnectionClosedError",
    "FrameError",
    "LoadReport",
    "ProtocolError",
    "RemoteSecureXMLSystem",
    "RemoteServer",
    "RemoteServerError",
    "RequestTimeoutError",
    "ServerDraining",
    "ServingConnection",
    "ServingError",
    "ServingServer",
    "TenantSession",
    "UnknownTenantError",
    "decode_error",
    "decode_frame",
    "encode_error",
    "encode_frame",
    "remote_system",
    "run_load",
]
