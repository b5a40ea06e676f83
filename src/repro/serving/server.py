"""The multi-tenant socket front door.

One :class:`ServingServer` hosts any number of tenants, each a fully
independent :class:`~repro.core.system.SecureXMLSystem` (own keyring,
own hosted tree, own epoch history) registered under a tenant id.  The
wire protocol is the length-prefixed framing of
:mod:`repro.serving.framing`; payloads are the *existing* sealed wire
blobs, so the server's security posture is unchanged — the socket layer
never sees a key it didn't already hold as the tenant's host.

Execution model
---------------

One thread per connection, one request at a time on it.  A
``serving-accept`` thread owns the listener; each connection's
``serving-connection`` thread blocks on ``recv``, reads a frame, admits
it, runs its handler inline — the synchronous pipeline, the same
:meth:`~repro.core.server.Server.answer_wire` the in-process path calls
— and writes the reply with ``sendall`` before it reads the next frame.
Concurrency comes from connections: each owner handle is one.

A tenant runs one request at a time: every handler (``hello``,
``query``, ``update``, ``drain``) takes its session's one lock, so a
query never observes a half-applied update and the served system needs
no lock of its own.  A handler is pure CPU, so under the GIL a second
one could not run beside it in any case.  While a system is registered
here, only the front door calls it: the owner's remote handles share
its hosted state and keyring, and read the freshness anchor under the
:class:`~repro.core.encryptor.HostedDatabase` anchor lock.

Admission control and drain
---------------------------

A bounded counter of requests in flight (handler running or reply
still being written), taken under a condition variable: past
``max_inflight`` the server answers with a typed
:class:`BackpressureRejected` **before** any work is done, which the
remote system's retry loop absorbs like a dropped transfer.
:meth:`ServingServer.drain` is the graceful shutdown: stop accepting,
reject new requests as :class:`ServerDraining`, wait for the in-flight
count to reach zero, flush each tenant's caches and (for tenants
registered with a storage directory) persist through
:func:`repro.core.storage.save_system`, then shut idle connections
down so their threads exit.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from contextlib import suppress

from repro.core.integrity import TamperedRequestError, seal
from repro.core.system import SecureXMLSystem
from repro.core.updates import UpdateError
from repro.obs import Observability
from repro.obs.span import count

from repro.serving.errors import (
    BackpressureRejected,
    ProtocolError,
    ServerDraining,
    ServingError,
    UnknownTenantError,
    encode_error,
)
from repro.serving.framing import (
    OP_ERROR,
    OP_HELLO,
    OP_HELLO_OK,
    OP_OK,
    OP_QUERY,
    OP_UPDATE,
    PROTOCOL_VERSION,
    FrameError,
    encode_frame,
    read_frame,
)

#: Request opcodes the front door serves, mapped to the
#: :class:`TenantSession` method that handles each.
_REQUEST_HANDLERS = {
    OP_QUERY: "query",
    OP_UPDATE: "update",
}

#: Update operations a sealed OP_UPDATE payload may name, mapped to the
#: system methods that apply them.
_UPDATE_OPS = ("insert_element", "delete_element", "update_value")


class TenantSession:
    """One hosted tenant: its system, session keys, and request surface.

    All methods here are synchronous, run on the thread of the
    connection that sent the request, and hold the session's lock: one
    request at a time per tenant.
    """

    def __init__(
        self,
        tenant_id: str,
        system: SecureXMLSystem,
        storage_dir: str | None = None,
    ) -> None:
        self.tenant_id = tenant_id
        self.system = system
        self.storage_dir = storage_dir
        self._request_key, self._response_key = (
            system.keyring.session_keys()
        )
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Request surface (sync, on the connection's thread)
    # ------------------------------------------------------------------
    def hello(self) -> dict[str, object]:
        with self._lock:
            return {
                "tenant": self.tenant_id,
                "protocol": PROTOCOL_VERSION,
                "epoch": self.system.hosted.epoch,
            }

    def query(self, blob: bytes) -> bytes:
        with self._lock:
            return self.system.server.answer_wire(blob)

    def update(self, blob: bytes) -> bytes:
        """Apply one sealed update operation; returns a sealed ack.

        The command must be sealed at the *current* anchor, like every
        request.  One that lost a race to a concurrent commit while it
        waited on the tenant lock gets the typed
        :class:`~repro.core.integrity.RollbackDetectedError` back and the
        client re-seals against the new epoch.  Every applied write moves
        the epoch, so a captured command blob re-sent after it landed
        fails the same check: replay protection needs no memory.  The ack
        is sealed with the plain envelope (not the freshness one): by the
        time the client verifies it, a *further* update may legitimately
        have moved the anchor again, and the ack's job is authenticity,
        not freshness.  It names the SHA-256 of the command blob, so the
        ack of one command cannot pass for another's.
        """
        count("serving_updates")
        with self._lock:
            op = self._open_command(blob)
            applied = self._apply_update(op)
            ack = json.dumps(
                {
                    "applied": applied,
                    "command": hashlib.sha256(blob).hexdigest(),
                    "epoch": self.system.hosted.epoch,
                },
                sort_keys=True,
            ).encode("utf-8")
            return seal(self._response_key, ack)

    def _open_command(self, blob: bytes) -> dict:
        """Verify (strictly fresh) and decode one sealed command blob."""
        payload, _ = self.system.hosted.unseal(
            self._request_key, blob, error=TamperedRequestError
        )
        try:
            op = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise TamperedRequestError(
                "command payload is not valid JSON"
            ) from exc
        if not isinstance(op, dict):
            raise TamperedRequestError("command payload is not an object")
        return op

    def _apply_update(self, op: dict) -> str:
        name = op.get("op")
        if name not in _UPDATE_OPS:
            raise UpdateError(f"unknown update operation {name!r}")
        if name == "insert_element":
            self.system.insert_element(
                op["parent_xpath"], op["tag"], op["value"]
            )
        elif name == "delete_element":
            self.system.delete_element(op["xpath"])
        else:
            self.system.update_value(op["xpath"], op["new_value"])
        return name

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Flush caches and persist durable state (under the tenant lock)."""
        with self._lock:
            self.system.flush_caches()
            if self.storage_dir is not None:
                from repro.core.storage import save_system

                save_system(self.system, self.storage_dir)


class ServingServer:
    """Blocking TCP front door over any number of tenant systems."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        obs: Observability | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.host = host
        self.port = port  # 0 until start() binds
        self._requested_port = port
        self.max_inflight = max_inflight
        self._obs = Observability.coerce(obs)
        self._tenants: dict[str, TenantSession] = {}
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._drain_lock = threading.Lock()
        self._lifecycle = threading.Lock()
        #: Guards the state below; notified whenever ``_inflight`` falls.
        self._state = threading.Condition()
        self._inflight = 0
        self._draining = False
        self._drained = False
        #: Live connection sockets, and the door's threads (pruned of
        #: finished ones at each spawn) that ``stop`` joins.
        self._sockets: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # Tenant registry
    # ------------------------------------------------------------------
    def register_tenant(
        self,
        tenant_id: str,
        system: SecureXMLSystem,
        storage_dir: str | None = None,
    ) -> TenantSession:
        if tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant_id!r} already registered")
        session = TenantSession(tenant_id, system, storage_dir=storage_dir)
        self._tenants[tenant_id] = session
        return session

    @property
    def tenants(self) -> dict[str, TenantSession]:
        return dict(self._tenants)

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind the listener and start serving; returns ``(host, port)``."""
        with self._lifecycle:
            if self._listener is not None:
                raise RuntimeError("serving server already started")
            family, _, _, _, address = socket.getaddrinfo(
                self.host, self._requested_port, type=socket.SOCK_STREAM
            )[0]
            self._listener = socket.create_server(address, family=family)
            self.port = self._listener.getsockname()[1]
            self._acceptor = self._spawn(self._accept, "serving-accept")
            return (self.host, self.port)

    def _spawn(self, target, name: str, *args: object) -> threading.Thread:
        thread = threading.Thread(
            target=target, args=args, name=name, daemon=True
        )
        with self._state:
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        thread.start()
        return thread

    def _accept(self) -> None:
        """Hand each new connection its own thread until draining."""
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                if self._draining:
                    return  # drain shut the listener down
                time.sleep(0.01)  # transient, say out of descriptors
                continue
            with self._state:
                if self._draining:
                    conn.close()
                    return
                self._sockets.add(conn)
                self._obs.metrics.set_gauge(
                    "serving_connections", len(self._sockets)
                )
            count("serving_connections")
            self._spawn(self._serve_connection, "serving-connection", conn)

    def drain(self, timeout: float | None = 60.0) -> None:
        """Graceful shutdown of serving.

        Stop accepting connections, refuse new requests with the typed
        :class:`ServerDraining`, wait for every in-flight request, flush
        and persist every tenant, then shut idle connections down so
        their threads exit.  Idempotent and safe to call concurrently —
        late callers wait for the first drain to finish.  Raises
        ``TimeoutError`` if requests still run after ``timeout``
        seconds; a later call resumes the drain.
        """
        if self._listener is None:
            return  # never started, or stopped
        with self._drain_lock:
            if self._drained:
                return
            with self._state:
                self._draining = True
            self._stop_accepting()
            with self._state:
                if not self._state.wait_for(
                    lambda: not self._inflight, timeout
                ):
                    raise TimeoutError(
                        f"{self._inflight} requests in flight after {timeout}s"
                    )
            for session in self._tenants.values():
                session.drain()
            with self._state:
                for conn in self._sockets:
                    with suppress(OSError):
                        conn.shutdown(socket.SHUT_RDWR)
                self._drained = True
            count("serving_drains")

    def _stop_accepting(self) -> None:
        """Wake the accept thread off the listener, join it, close it."""
        with suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes it on Linux
        self._acceptor.join(timeout=1.0)
        if self._acceptor.is_alive():
            # A platform that leaves accept blocked on a shut-down
            # listener: one connection wakes it, and it sees the drain.
            with suppress(OSError):
                socket.create_connection(self.address, timeout=1.0).close()
            self._acceptor.join(timeout=1.0)
        self._listener.close()

    def stop(self, timeout: float | None = 60.0) -> None:
        """Drain (if not yet drained) and join every thread the door
        started.  Idempotent."""
        self.drain(timeout=timeout)
        with self._lifecycle:
            if self._listener is None:
                return
            self._listener = None
            for thread in self._threads:  # drained: no thread starts now
                thread.join(timeout=timeout)

    def __enter__(self) -> "ServingServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling (one thread per connection)
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one connection's frames in order, one at a time."""
        buffer = bytearray()
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = self._handshake(conn, buffer)
            while session is not None:
                rid, op, payload = read_frame(conn, buffer)
                reply_op, reply, admitted = self._serve(session, op, payload)
                try:
                    conn.sendall(encode_frame(rid, reply_op, reply))
                finally:
                    if admitted:
                        # In flight until the reply is written: a drain
                        # must not shut the socket under it.
                        self._release()
        except (OSError, FrameError):
            pass  # the peer went away, or its framing can't be trusted
        finally:
            with self._state:
                self._sockets.discard(conn)
                self._obs.metrics.set_gauge(
                    "serving_connections", len(self._sockets)
                )
            conn.close()

    def _handshake(
        self, conn: socket.socket, buffer: bytearray
    ) -> TenantSession | None:
        """Answer the HELLO: the connection's session, or ``None`` after
        a typed refusal."""
        rid, op, payload = read_frame(conn, buffer)
        try:
            session = self._open_session(op, payload)
        except (ServingError, ServerDraining) as exc:
            conn.sendall(encode_frame(rid, OP_ERROR, encode_error(exc)))
            return None
        hello = json.dumps(session.hello(), sort_keys=True).encode("utf-8")
        conn.sendall(encode_frame(rid, OP_HELLO_OK, hello))
        return session

    def _open_session(self, op: int, payload: bytes) -> TenantSession:
        if op != OP_HELLO:
            raise ProtocolError(f"expected HELLO, got opcode {op}")
        try:
            hello = json.loads(payload.decode("utf-8"))
            tenant_id, protocol = hello["tenant"], hello["protocol"]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            raise ProtocolError(
                "HELLO payload must be JSON with a tenant and a protocol"
            ) from None
        if protocol != PROTOCOL_VERSION:
            raise ProtocolError(
                f"HELLO speaks protocol {protocol!r}, this server "
                f"{PROTOCOL_VERSION}"
            )
        if self._draining:
            raise ServerDraining("server is draining")
        session = self._tenants.get(tenant_id)
        if session is None:
            raise UnknownTenantError(f"unknown tenant {tenant_id!r}")
        return session

    def _serve(
        self, session: TenantSession, op: int, payload: bytes
    ) -> tuple[int, bytes, bool]:
        """One request's reply — ``OK`` and the handler's bytes, or a
        typed ``ERROR`` — and whether it was admitted (the caller
        releases its slot once the reply is written)."""
        handler = _REQUEST_HANDLERS.get(op)
        if handler is None:
            return OP_ERROR, encode_error(
                ProtocolError(f"unknown opcode {op}")
            ), False
        try:
            self._admit(session)
        except (BackpressureRejected, ServerDraining) as exc:
            return OP_ERROR, encode_error(exc), False
        started = time.perf_counter()
        try:
            return OP_OK, getattr(session, handler)(payload), True
        except Exception as exc:  # typed errors travel as ERROR frames
            return OP_ERROR, encode_error(exc), True
        finally:
            self._obs.metrics.observe(
                "serving_request_seconds", time.perf_counter() - started
            )

    def _release(self) -> None:
        with self._state:
            self._inflight -= 1
            self._state.notify_all()  # a drain waits for zero
            self._obs.metrics.set_gauge("serving_inflight", self._inflight)

    def _admit(self, session: TenantSession) -> None:
        """Admission control: typed rejection before any work is done."""
        with self._state:
            if self._draining:
                raise ServerDraining("server is draining; request rejected")
            self._obs.metrics.observe("serving_queue_depth", float(self._inflight))
            if self._inflight >= self.max_inflight:
                count("backpressure_rejections")
                raise BackpressureRejected(
                    f"in-flight queue full ({self.max_inflight} requests)"
                )
            self._inflight += 1
            self._obs.metrics.set_gauge("serving_inflight", self._inflight)
        count("serving_requests")
        self._obs.metrics.inc_labeled(
            "serving_tenant_requests", tenant=session.tenant_id
        )
