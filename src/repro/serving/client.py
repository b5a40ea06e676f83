"""The remote side of the front door: async client, sync facade, proxy.

Three layers, innermost first:

:class:`AsyncServingClient`
    Pure asyncio: one TCP connection, a HELLO handshake, and a reader
    task that demultiplexes response frames back to their requests by
    request id — which is what lets one connection carry many in-flight
    requests at once.

:class:`ServingConnection`
    A synchronous facade owning a private event loop on a daemon
    thread, so the *blocking* secure pipeline can call through it like
    any other function.  This is also where the
    :class:`~repro.serving.transport.AsyncFaultTransport` is applied:
    request payloads are faulted **before** they are framed (a corrupted
    request genuinely crosses the wire mangled; a dropped one never
    leaves the process), responses are faulted on arrival, on the
    calling thread, in consumption order — exactly the transfer
    sequence the in-process channel sees, so a seeded
    :class:`~repro.netsim.faults.FaultPolicy` replays the same schedule
    over live sockets.

:class:`RemoteServer` / :class:`RemoteSecureXMLSystem` / :func:`remote_system`
    The drop-in: ``RemoteServer`` implements the monolithic
    :class:`~repro.core.server.Server` wire surface over a connection,
    and ``remote_system(local, address, tenant)`` builds a
    :class:`~repro.core.system.SecureXMLSystem` whose server is that
    proxy and whose channel is a :class:`~repro.netsim.channel
    .NullChannel` (all fault injection and byte accounting happen once,
    in the transport).  Every verification step — envelope, freshness,
    decryption, re-evaluation — runs in the unmodified system code, so
    remote answers are byte-identical to in-process ones and failures
    surface as the same typed errors.

Update parity: in-process updates are local mutations with no channel
transfer, so remote updates bypass the fault transport too.  They cross
as freshness-sealed commands (:data:`OP_UPDATE`) bound to the tenant's
``(epoch, Merkle root)`` anchor, valid at exactly that one epoch; losing
a seal race to a concurrent writer surfaces as a typed freshness error
and the client re-seals against the moved anchor, a bounded number of
times.  Stats travel the same sealed-command path — no tenant operation
is reachable unauthenticated.  Cache flushes do not cross the wire:
:meth:`RemoteSecureXMLSystem.flush_caches` empties the client half, and
the served tenant's caches are the host's to flush.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
from concurrent.futures import TimeoutError as _FutureTimeoutError

from repro.core.client import Client
from repro.core.integrity import FreshnessError, TamperedResponseError, unseal
from repro.core.system import SecureXMLSystem
from repro.crypto.keyring import ClientKeyring
from repro.netsim.channel import Channel, NullChannel

from repro.serving.errors import (
    ProtocolError,
    RequestTimeoutError,
    ServingError,
    decode_error,
)
from repro.serving.framing import (
    FAULTED_OPS,
    OP_ERROR,
    OP_HELLO,
    OP_HELLO_OK,
    OP_NAIVE,
    OP_OK,
    OP_QUERY,
    OP_STATS,
    OP_UPDATE,
    PROTOCOL_VERSION,
    ConnectionClosedError,
    FrameError,
    encode_frame,
    read_frame,
)
from repro.serving.transport import AsyncFaultTransport

#: How many times a sealed command re-seals after losing an anchor race.
_COMMAND_RESEAL_ATTEMPTS = 5

#: Sentinel opcode the reader enqueues when the connection dies.
_CLOSED = -1


class AsyncServingClient:
    """One framed connection with request-id demultiplexing (asyncio)."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: dict,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.hello = hello
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Queue] = {}
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    async def open(
        cls, host: str, port: int, tenant: str
    ) -> "AsyncServingClient":
        reader, writer = await asyncio.open_connection(host, port)
        payload = json.dumps(
            {"tenant": tenant, "protocol": PROTOCOL_VERSION}, sort_keys=True
        ).encode("utf-8")
        writer.write(encode_frame(0, OP_HELLO, payload))
        await writer.drain()
        _, op, data = await read_frame(reader)
        if op == OP_ERROR:
            writer.close()
            raise decode_error(data)
        if op != OP_HELLO_OK:
            writer.close()
            raise ProtocolError(f"expected HELLO_OK, got opcode {op}")
        return cls(reader, writer, json.loads(data.decode("utf-8")))

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass

    async def _read_loop(self) -> None:
        try:
            while True:
                rid, op, payload = await read_frame(self._reader)
                queue = self._pending.get(rid)
                if queue is not None:
                    queue.put_nowait((op, payload))
        except (FrameError, ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            for queue in self._pending.values():
                queue.put_nowait((_CLOSED, b""))

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def _send(self, rid: int, op: int, payload: bytes) -> None:
        frame = encode_frame(rid, op, payload)
        async with self._write_lock:
            self._writer.write(frame)
            await self._writer.drain()

    async def call(self, op: int, payload: bytes) -> bytes:
        """One monolithic request; returns the OK payload or re-raises."""
        rid = next(self._ids)
        queue: asyncio.Queue = asyncio.Queue()
        self._pending[rid] = queue
        try:
            await self._send(rid, op, payload)
            resp_op, data = await queue.get()
            if resp_op == _CLOSED:
                raise ConnectionClosedError("connection lost mid-request")
            if resp_op == OP_ERROR:
                raise decode_error(data)
            if resp_op != OP_OK:
                raise ProtocolError(
                    f"expected OK for request {rid}, got opcode {resp_op}"
                )
            return data
        finally:
            self._pending.pop(rid, None)


class ServingConnection:
    """Blocking facade over :class:`AsyncServingClient`.

    Owns a private event loop on a daemon thread; every public method is
    safe to call from any (single) client thread.  The fault transport
    is applied here — on the calling thread, in the order payloads are
    produced/consumed — keeping a stateful seeded channel single-threaded.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        channel: Channel | None = None,
        timeout: float = 60.0,
        keyring: "ClientKeyring | None" = None,
        hosted: "object | None" = None,
    ) -> None:
        self.transport = AsyncFaultTransport(channel)
        self._timeout = timeout
        # Owner-side state for sealed control commands (update,
        # stats): the session keys and the live (epoch, root) anchor.
        # Optional — a connection without them can still run the sealed
        # query paths, whose blobs the caller seals itself.
        self._keyring = keyring
        self._hosted = hosted
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name=f"serving-client-{tenant}",
            daemon=True,
        )
        self._thread.start()
        self._closed = False
        self._close_lock = threading.Lock()
        try:
            self._client = self._run(
                AsyncServingClient.open(host, port, tenant)
            )
        except BaseException:
            self._shutdown_loop()
            raise
        self.hello = self._client.hello

    def _run(self, coro):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(self._timeout)
        except _FutureTimeoutError:
            # Cancel the coroutine on the client loop so its finally
            # blocks run (dropping the _pending entry) — otherwise the
            # abandoned call sits on queue.get forever and a late frame
            # for its request id could be mis-delivered later.
            future.cancel()
            raise RequestTimeoutError(
                f"no response within {self._timeout}s"
            ) from None

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------
    def call(self, op: int, payload: bytes) -> bytes:
        """One request/response; fault-transported iff ``op`` is data-plane."""
        faulted = op in FAULTED_OPS
        if faulted:
            payload = self.transport.outbound("query", payload)
        data = self._run(self._client.call(op, payload))
        if faulted:
            data = self.transport.inbound("answer", data)
        return data

    def sealed_call(self, op: int, command: dict) -> bytes:
        """Issue a freshness-sealed control command; returns the
        verified response payload.

        The command is sealed at the live anchor, the one epoch it is
        valid at; losing the anchor race to a concurrent writer re-seals
        against the moved epoch, a bounded number of times.  No nonce is
        needed: an applied write moves the epoch, so two identical
        commands seal to distinct blobs anyway, and a replay of either
        fails freshness.  The response must verify under the tenant's
        response key.
        """
        if self._keyring is None or self._hosted is None:
            raise ServingError(
                "connection opened without keyring/hosted state; sealed "
                "control commands need both (see remote_system)"
            )
        request_key, response_key = self._keyring.session_keys()
        payload = json.dumps(command, sort_keys=True).encode("utf-8")
        last: FreshnessError | None = None
        for _ in range(_COMMAND_RESEAL_ATTEMPTS):
            blob, _ = self._hosted.seal(request_key, payload)
            try:
                sealed = self.call(op, blob)
            except FreshnessError as exc:
                last = exc
                continue
            return unseal(
                response_key, sealed, error=TamperedResponseError
            )
        assert last is not None
        raise last

    def stats(self) -> dict:
        sealed = self.sealed_call(OP_STATS, {"op": "stats"})
        return json.loads(sealed.decode("utf-8"))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._run(self._client.close())
        finally:
            self._shutdown_loop()

    def _shutdown_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=self._timeout)
        self._loop.close()

    def __enter__(self) -> "ServingConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RemoteServer:
    """The monolithic ``Server`` wire surface, proxied over a connection.

    Implements exactly the two methods the secure pipeline calls on
    ``system.server`` plus the attributes the system constructor touches,
    so a :class:`~repro.core.system.SecureXMLSystem` cannot tell it from
    a local server.
    """

    def __init__(self, connection: ServingConnection) -> None:
        self._connection = connection
        self._obs = None  # assigned by SecureXMLSystem.__init__

    def answer_wire(self, request_blob: bytes) -> bytes:
        return self._connection.call(OP_QUERY, request_blob)

    def ship_all_wire(self, request_blob: bytes) -> bytes:
        return self._connection.call(OP_NAIVE, request_blob)


class RemoteSecureXMLSystem(SecureXMLSystem):
    """A system whose server half lives behind the socket.

    Queries need no overriding at all — the inherited pipeline calls the
    :class:`RemoteServer` proxy and verifies everything itself.  Updates
    are overridden to travel as sealed commands, ``flush_caches`` empties
    the client half only, and ``close`` also closes the connection
    (idempotently — a serving drain can race it).
    """

    _connection: ServingConnection | None = None

    def flush_caches(self) -> None:
        """Drop the client-side caches; the served tenant keeps its own."""
        self.client.flush_caches()

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
        connection = self._connection
        assert connection is not None, "remote system has no connection"
        # sealed_call seals at the live anchor and re-seals after losing
        # an anchor race to a concurrent writer.
        ack = connection.sealed_call(OP_UPDATE, op)
        json.loads(ack.decode("utf-8"))  # malformed ack → typed error

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        super().close()
        connection = self._connection
        if connection is not None:
            connection.close()


def remote_system(
    local: SecureXMLSystem,
    address: tuple[str, int],
    tenant: str,
    channel: Channel | None = None,
    observability: "object | None" = None,
    timeout: float = 60.0,
) -> RemoteSecureXMLSystem:
    """Build the owner's remote handle onto a served tenant.

    ``local`` is the owner's system for the same tenant — the remote
    handle shares its hosted state and keyring (the owner *is* the same
    party on both ends; what moves to the far side of the socket is the
    untrusted server half).  ``channel`` is the netsim channel applied
    at the socket boundary: default accounting-only, ``NullChannel()``
    for free transfers, a ``FaultyChannel`` for chaos over live sockets.
    """
    host, port = address
    connection = ServingConnection(
        host, port, tenant, channel=channel, timeout=timeout,
        keyring=local.keyring, hosted=local.hosted,
    )
    remote = RemoteSecureXMLSystem(
        client=Client(local.keyring, local.hosted),
        server=RemoteServer(connection),
        hosted=local.hosted,
        scheme=local.scheme,
        channel=NullChannel(),
        hosting_trace=local.hosting_trace,
        keyring=local.keyring,
        retry_policy=local.retry_policy,
        observability=observability,
        # Never client-side: decoy/padding fetches happen where the
        # storage is — the served tenant system — and REPRO_LEAKAGE must
        # not make this proxy try to attach a tier to RemoteServer.
        leakage=False,
    )
    remote._connection = connection
    return remote
