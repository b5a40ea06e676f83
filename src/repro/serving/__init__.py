"""Socket serving: the multi-tenant front door.

Stands the secure query pipeline up behind real TCP sockets without
changing a byte of its security behaviour: requests and responses cross
the wire as the same sealed payloads the in-process channel carries,
every verification step runs in the unmodified owner-side code, and the
owner's end is a plain blocking socket, one request at a time, under a
system that keeps its own netsim channel — so the chaos and rollback
suites replay their seeded schedules over live connections.  The front
door matches it: one blocking thread per connection reads a frame, runs
its handler and writes the reply, in order.  See ``docs/SERVING.md``.
"""

from repro.serving.client import (
    RemoteSecureXMLSystem,
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
from repro.serving.server import ServingServer, TenantSession

__all__ = [
    "BackpressureRejected",
    "ConnectionClosedError",
    "FrameError",
    "ProtocolError",
    "RemoteSecureXMLSystem",
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
]
