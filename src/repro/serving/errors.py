"""Typed errors for the serving layer, and their wire representation.

The in-process pipeline's whole failure model is *typed*: a tampered
envelope raises :class:`TamperedResponseError`, a rollback raises
:class:`RollbackDetectedError`, a dropped transfer raises
:class:`TransferDropped`, and the retry loop keys on those types.  For
the socket path to be a drop-in transport, a server-side exception must
arrive at the remote client as the *same type* — so an ``OP_ERROR``
frame carries ``{"error": <registered name>, "message": ...}`` and the
client re-raises through the registry below.

Two rejection types are native to the serving layer and deliberately
subclass :class:`TransferDropped`:

* :class:`BackpressureRejected` — the bounded in-flight queue was full;
* :class:`ServerDraining` — the server is in graceful shutdown.

``TransferDropped`` is already in the system's retryable set, so a
remote :class:`~repro.core.system.SecureXMLSystem` absorbs both with
its existing backoff loop — a full queue looks exactly like a lossy
wire, which is the honest model for it.
"""

from __future__ import annotations

import json

from repro.core.integrity import (
    FreshnessError,
    IntegrityError,
    RollbackDetectedError,
    StaleStateError,
    TamperedRequestError,
    TamperedResponseError,
)
from repro.core.system import QueryFailedError
from repro.core.updates import UpdateError
from repro.netsim.faults import TransferDropped
from repro.netsim.message import MessageDecodeError


class ServingError(RuntimeError):
    """Base for failures of the serving layer itself (not the pipeline)."""


class ProtocolError(ServingError):
    """The peer violated the framing/opcode contract."""


class UnknownTenantError(ServingError):
    """HELLO named a tenant this server does not host."""


class BackpressureRejected(TransferDropped):
    """Admission control refused the request: in-flight queue full.

    Retryable by construction (it *is* a dropped transfer from the
    system's point of view); the client's backoff loop gives the queue
    time to drain.
    """


class ServerDraining(TransferDropped):
    """The server is draining: no new requests, in-flight ones finish."""


class RequestTimeoutError(ServingError):
    """A client-side deadline expired with the request still in flight.

    Raised by :class:`~repro.serving.client.ServingConnection` — the
    server may or may not have executed the operation, so this is
    deliberately *not* retryable
    (re-issuing a mutating command after a timeout could double-apply
    it); callers that know their operation is idempotent can retry
    explicitly.
    """


class RemoteServerError(ServingError):
    """A server-side error whose type is not in the shared registry.

    Surfacing it untyped (rather than guessing a registered type) keeps
    the exact-answer-or-typed-error invariant honest: the remote client
    never converts an unknown failure into one the retry loop would
    silently absorb.
    """


#: Exception types that cross the wire by name.  Both ends must agree on
#: this table; the name is the class name, which is stable API surface.
_REGISTERED: tuple[type[Exception], ...] = (
    # Integrity / freshness (the chaos and rollback suites key on these).
    IntegrityError,
    TamperedRequestError,
    TamperedResponseError,
    FreshnessError,
    RollbackDetectedError,
    StaleStateError,
    # Pipeline failures.
    QueryFailedError,
    UpdateError,
    MessageDecodeError,
    TransferDropped,
    # Serving-native rejections.
    ProtocolError,
    UnknownTenantError,
    BackpressureRejected,
    ServerDraining,
)

WIRE_ERRORS: dict[str, type[Exception]] = {
    cls.__name__: cls for cls in _REGISTERED
}


def encode_error(exc: Exception) -> bytes:
    """Serialize an exception into an ``OP_ERROR`` payload.

    Subclasses not individually registered fall back to the nearest
    registered base (a subclass of :class:`QueryFailedError` travels as
    :class:`QueryFailedError`), which preserves the retry semantics the
    client's loop keys on even for types it has never imported.
    """
    name = type(exc).__name__
    if name not in WIRE_ERRORS:
        for base in type(exc).__mro__[1:]:
            if base.__name__ in WIRE_ERRORS:
                name = base.__name__
                break
        else:
            name = "RemoteServerError"
    return json.dumps(
        {"error": name, "message": str(exc)}, sort_keys=True
    ).encode("utf-8")


def decode_error(payload: bytes) -> Exception:
    """Rebuild the typed exception an ``OP_ERROR`` payload describes."""
    try:
        data = json.loads(payload.decode("utf-8"))
        name = data["error"]
        message = data.get("message", "")
    except (ValueError, KeyError, UnicodeDecodeError):
        return ProtocolError(f"undecodable error frame: {payload[:64]!r}")
    cls = WIRE_ERRORS.get(name)
    if cls is None:
        return RemoteServerError(f"{name}: {message}")
    return cls(message)
