"""The owner's end of the front door: one blocking connection, one system.

:class:`ServingConnection`
    One TCP socket to the front door, one request in flight at a time.
    A lock covers each send and its receive; responses are read with
    :func:`~repro.serving.framing.read_frame`, the blocking reader the
    front door's connection threads use too.  The request id exists for
    one job only: after a
    :class:`~repro.serving.errors.RequestTimeoutError` the abandoned
    request's late answer is still on its way, and the next request
    reads past it by id.  The connection *is* the remote server: it
    exposes ``answer_wire``, the one method the secure pipeline calls
    on ``system.server``.  It is transport only and holds no key.

:class:`RemoteSecureXMLSystem` / :func:`remote_system`
    ``remote_system(local, address, tenant, channel)`` builds a
    :class:`~repro.core.system.SecureXMLSystem` whose server is that
    connection and whose channel is the caller's netsim channel.  The
    system's own exchange carries every sealed payload across the
    channel exactly as in process — modelled as ``transfer`` spans, and
    faulted by a test's fault channel (``tests/fault_channel.py``) on
    the same transfers in the same order — and then across the socket.
    Every verification step (envelope, freshness, decryption,
    re-evaluation) runs in the unmodified system code, so remote answers
    are byte-identical to in-process ones and failures surface as the
    same typed errors.

Update parity: in-process updates are local mutations with no channel
transfer, so remote updates bypass the channel too.  They cross as
freshness-sealed commands (:data:`OP_UPDATE`) bound to the tenant's
``(epoch, Merkle root)`` anchor, valid at exactly that one epoch; losing
a seal race to a concurrent writer surfaces as a typed freshness error
and the client re-seals against the moved anchor, a bounded number of
times.  No other command crosses the wire — the tenant's request counts
are the host's metrics registry — and cache flushes do not either:
:meth:`RemoteSecureXMLSystem.flush_caches` empties the client half, and
the served tenant's caches are the host's to flush.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import socket
import threading

from repro.core.client import Client
from repro.core.integrity import FreshnessError, TamperedResponseError, unseal
from repro.core.system import SecureXMLSystem
from repro.netsim.channel import Channel

from repro.serving.errors import (
    ProtocolError,
    RequestTimeoutError,
    decode_error,
)
from repro.serving.framing import (
    OP_ERROR,
    OP_HELLO,
    OP_HELLO_OK,
    OP_OK,
    OP_QUERY,
    OP_UPDATE,
    PROTOCOL_VERSION,
    ConnectionClosedError,
    encode_frame,
    read_frame,
)

#: How many times a sealed command re-seals after losing an anchor race.
_COMMAND_RESEAL_ATTEMPTS = 5


class ServingConnection:
    """One blocking framed connection to a tenant; the remote server.

    Safe to share between threads: a lock serializes whole requests.
    ``timeout`` bounds each wait for bytes from the front door; a
    request that hits it raises :class:`RequestTimeoutError` and leaves
    the connection usable.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        timeout: float = 60.0,
    ) -> None:
        self._timeout = timeout
        self._ids = itertools.count(1)
        self._buffer = bytearray()
        self._lock = threading.Lock()
        self._sock = socket.create_connection((host, port), timeout=timeout)
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            payload = json.dumps(
                {"tenant": tenant, "protocol": PROTOCOL_VERSION},
                sort_keys=True,
            ).encode("utf-8")
            op, data = self._round_trip(0, OP_HELLO, payload)
            if op == OP_ERROR:
                raise decode_error(data)
            if op != OP_HELLO_OK:
                raise ProtocolError(f"expected HELLO_OK, got opcode {op}")
            hello = json.loads(data.decode("utf-8"))
            protocol = hello.get("protocol") if isinstance(hello, dict) else None
            if protocol != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"server speaks protocol {protocol!r}, "
                    f"this client {PROTOCOL_VERSION}"
                )
            self.hello = hello
        except BaseException:
            self._sock.close()
            raise

    # ------------------------------------------------------------------
    # Frame I/O
    # ------------------------------------------------------------------
    def _round_trip(
        self, rid: int, op: int, payload: bytes
    ) -> tuple[int, bytes]:
        """Send one frame; return ``(opcode, payload)`` of its answer.

        A frame carrying another id is the late answer to a request that
        timed out earlier on this connection, and is discarded.
        """
        with self._lock:
            try:
                self._sock.sendall(encode_frame(rid, op, payload))
                while True:
                    got, resp_op, data = read_frame(self._sock, self._buffer)
                    if got == rid:
                        return resp_op, data
            except TimeoutError:
                raise RequestTimeoutError(
                    f"no response within {self._timeout}s"
                ) from None
            except OSError as exc:
                raise ConnectionClosedError(
                    "connection lost mid-request"
                ) from exc

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------
    def call(self, op: int, payload: bytes) -> bytes:
        """One request/response; returns the OK payload or re-raises."""
        rid = next(self._ids)
        resp_op, data = self._round_trip(rid, op, payload)
        if resp_op == OP_ERROR:
            raise decode_error(data)
        if resp_op != OP_OK:
            raise ProtocolError(
                f"expected OK for request {rid}, got opcode {resp_op}"
            )
        return data

    def answer_wire(self, request_blob: bytes) -> bytes:
        return self.call(OP_QUERY, request_blob)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the socket (idempotent)."""
        self._sock.close()

    def __enter__(self) -> "ServingConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RemoteSecureXMLSystem(SecureXMLSystem):
    """A system whose server half lives behind the socket.

    Queries need no overriding at all — the inherited pipeline calls the
    :class:`ServingConnection` as its server and verifies everything
    itself.  Updates are overridden to travel as sealed commands,
    ``flush_caches`` empties the client half only, and ``close`` also
    closes the connection.
    """

    @property
    def _connection(self) -> ServingConnection:
        return self.server

    def flush_caches(self) -> None:
        """Drop the client-side caches; the served tenant keeps its own."""
        self.client.flush_caches()

    def aggregate(self, xpath: str, func: str, mode: str = "exact"):
        """Aggregate over the socket: ``mode="exact"`` only.

        The server-side min/max fold has no opcode; inherited, it would
        read the served tenant's index on this thread, outside the
        tenant's lock.
        """
        if mode == "server":
            raise ValueError(
                "a remote handle cannot fold server-side "
                "(use mode='exact')"
            )
        return super().aggregate(xpath, func, mode)

    # ------------------------------------------------------------------
    # Updates over the wire
    # ------------------------------------------------------------------
    def insert_element(self, parent_xpath: str, tag: str, value: str) -> None:
        self._remote_update(
            {
                "op": "insert_element",
                "parent_xpath": parent_xpath,
                "tag": tag,
                "value": value,
            }
        )

    def delete_element(self, xpath: str) -> None:
        self._remote_update({"op": "delete_element", "xpath": xpath})

    def update_value(self, xpath: str, new_value: str) -> None:
        self._remote_update(
            {"op": "update_value", "xpath": xpath, "new_value": new_value}
        )

    def _remote_update(self, op: dict) -> None:
        """Send one freshness-sealed update command; verify its ack.

        The command is sealed at the live anchor, the one epoch it is
        valid at; losing the anchor race to a concurrent writer re-seals
        against the moved epoch, a bounded number of times.  No nonce is
        needed: an applied write moves the epoch, so two identical
        commands seal to distinct blobs anyway, and a replay of either
        fails freshness.  The ack must verify under the tenant's
        response key and name the SHA-256 of the blob it acknowledges.
        """
        request_key, response_key = self.keyring.session_keys()
        payload = json.dumps(op, sort_keys=True).encode("utf-8")
        last: FreshnessError | None = None
        for _ in range(_COMMAND_RESEAL_ATTEMPTS):
            blob, _ = self.hosted.seal(request_key, payload)
            try:
                sealed = self._connection.call(OP_UPDATE, blob)
            except FreshnessError as exc:
                last = exc
                continue
            ack = unseal(response_key, sealed, error=TamperedResponseError)
            named = json.loads(ack.decode("utf-8")).get("command")
            if named != hashlib.sha256(blob).hexdigest():
                raise TamperedResponseError(
                    "update ack names another command"
                )
            return
        assert last is not None
        raise last

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        super().close()
        self._connection.close()


def remote_system(
    local: SecureXMLSystem,
    address: tuple[str, int],
    tenant: str,
    channel: Channel | None = None,
) -> RemoteSecureXMLSystem:
    """Build the owner's remote handle onto a served tenant.

    ``local`` is the owner's system for the same tenant — the remote
    handle shares its hosted state and keyring (the owner *is* the same
    party on both ends; what moves to the far side of the socket is the
    untrusted server half).  ``channel`` is the system's netsim channel,
    as for :meth:`SecureXMLSystem.host`: default accounting-only, a
    test's fault channel for chaos over live sockets.
    """
    host, port = address
    connection = ServingConnection(host, port, tenant)
    return RemoteSecureXMLSystem(
        client=Client(local.keyring, local.hosted),
        server=connection,
        hosted=local.hosted,
        scheme=local.scheme,
        channel=Channel() if channel is None else channel,
        hosting_trace=local.hosting_trace,
        keyring=local.keyring,
        retry_policy=local.retry_policy,
    )
