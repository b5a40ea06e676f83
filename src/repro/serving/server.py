"""The multi-tenant socket front door.

One :class:`ServingServer` owns an ``asyncio`` event loop on a
background thread and hosts any number of tenants, each a fully
independent :class:`~repro.core.system.SecureXMLSystem` (own keyring,
own hosted tree, own epoch history) registered under a tenant id.  The
wire protocol is the length-prefixed framing of
:mod:`repro.serving.framing`; payloads are the *existing* sealed wire
blobs, so the server's security posture is unchanged — the socket layer
never sees a key it didn't already hold as the tenant's host.

Execution model
---------------

The event loop does I/O only.  Every admitted request is dispatched to
a thread pool (`run_in_executor`) where the synchronous pipeline — the
same :meth:`~repro.core.server.Server.answer_wire` the in-process path
calls — runs to completion; the loop meanwhile keeps reading frames, so
many requests per connection are genuinely in flight at once and
responses are matched by request id, not order.

Concurrency within a tenant is a readers–writer discipline:
queries and naive ships share a read lock, updates and the drain's
cache flush take the write lock (writer-priority, so a steady query
stream cannot starve updates).  Combined with the
:class:`~repro.core.server.Server` cache lock and the
:class:`~repro.core.encryptor.HostedDatabase` anchor lock, a reader can
never observe a half-applied update or a torn ``(epoch, root)`` pair.

Admission control and drain
---------------------------

A bounded in-flight counter guards the pool: past ``max_inflight`` the
server answers with a typed :class:`BackpressureRejected` **before** any
work is done, which the remote system's retry loop absorbs like a
dropped transfer.  :meth:`ServingServer.drain` is the graceful
shutdown: stop accepting connections, reject new requests as
:class:`ServerDraining`, let every in-flight request finish, then flush
each tenant's caches and (for tenants registered with a storage
directory) persist through :func:`repro.core.storage.save_system`,
whose stage-then-commit protocol fsyncs everything durable.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from typing import Iterator

from repro.core.integrity import TamperedRequestError, seal
from repro.core.system import SecureXMLSystem
from repro.core.updates import UpdateError
from repro.obs import Observability
from repro.perf import counters

from repro.serving.errors import (
    BackpressureRejected,
    ProtocolError,
    ServerDraining,
    UnknownTenantError,
    encode_error,
)
from repro.serving.framing import (
    OP_ERROR,
    OP_HELLO,
    OP_HELLO_OK,
    OP_NAIVE,
    OP_OK,
    OP_QUERY,
    OP_STATS,
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
    OP_NAIVE: "naive",
    OP_UPDATE: "update",
    OP_STATS: "stats",
}

#: Update operations a sealed OP_UPDATE payload may name, mapped to the
#: system methods that apply them.
_UPDATE_OPS = ("insert_element", "delete_element", "update_value")


class ReadWriteLock:
    """Writer-priority readers–writer lock (context-manager API).

    Plain condition-variable construction: readers share, a writer is
    exclusive, and a *waiting* writer blocks new readers so a steady
    query stream cannot starve updates.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
                self._writer_active = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class TenantSession:
    """One hosted tenant: its system, session keys, and request surface.

    All methods here are synchronous and run on the serving thread
    pool.
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
        self._rw = ReadWriteLock()
        self._counts_lock = threading.Lock()
        self.op_counts: dict[str, int] = {}

    def _count(self, op_name: str) -> None:
        with self._counts_lock:
            self.op_counts[op_name] = self.op_counts.get(op_name, 0) + 1

    # ------------------------------------------------------------------
    # Request surface (sync, executor-side)
    # ------------------------------------------------------------------
    def hello(self) -> dict[str, object]:
        with self._rw.read():
            return {
                "tenant": self.tenant_id,
                "protocol": PROTOCOL_VERSION,
                "epoch": self.system.hosted.epoch,
            }

    def query(self, blob: bytes) -> bytes:
        self._count("query")
        with self._rw.read():
            return self.system.server.answer_wire(blob)

    def naive(self, blob: bytes) -> bytes:
        self._count("naive")
        with self._rw.read():
            return self.system.server.ship_all_wire(blob)

    def update(self, blob: bytes) -> bytes:
        """Apply one sealed update operation; returns a sealed ack.

        The command must be sealed at the *current* anchor, like every
        request.  One that lost a race to a concurrent commit while it
        waited on the write lock gets the typed
        :class:`~repro.core.integrity.RollbackDetectedError` back and the
        client re-seals against the new epoch.  Every applied write moves
        the epoch, so a captured command blob re-sent after it landed
        fails the same check: replay protection needs no memory.  The ack
        is sealed with the plain envelope (not the freshness one): by the
        time the client verifies it, a *further* update may legitimately
        have moved the anchor again, and the ack's job is authenticity,
        not freshness.
        """
        counters.add("serving_updates")
        self._count("update")
        with self._rw.write():
            op = self._open_command(blob)
            applied = self._apply_update(op)
            ack = json.dumps(
                {"applied": applied, "epoch": self.system.hosted.epoch},
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

    def stats(self, blob: bytes) -> bytes:
        """Per-tenant serving statistics; requires a sealed command.

        Epoch and op counts are tenant metadata, so reading them takes
        the same sealed-command authentication as every other non-query
        op, and the response is sealed under the tenant's response key —
        a peer without the session keys gets a typed tamper error and
        learns nothing from a captured reply.
        """
        self._count("stats")
        op = self._open_command(blob)
        if op.get("op") != "stats":
            raise TamperedRequestError(
                "stats request carries a different command"
            )
        with self._counts_lock:
            ops = dict(self.op_counts)
        leakage = self.system.leakage
        payload = json.dumps(
            {
                "tenant": self.tenant_id,
                "epoch": self.system.hosted.epoch,
                "ops": ops,
                # Access-pattern countermeasure knobs this tenant serves
                # under (absent tier reported as all-off) — operators
                # audit the front door's posture through the same sealed
                # stats op the rest of the metadata uses.
                "leakage": {
                    "pad_to": leakage.policy.pad_to if leakage else 0,
                    "decoys": leakage.policy.decoys if leakage else 0,
                    "traces": len(leakage.recorder) if leakage else 0,
                },
            },
            sort_keys=True,
        ).encode("utf-8")
        return seal(self._response_key, payload)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Flush caches and persist durable state (under the write lock)."""
        with self._rw.write():
            self.system.flush_caches()
            if self.storage_dir is not None:
                from repro.core.storage import save_system

                save_system(self.system, self.storage_dir)


class ServingServer:
    """Asyncio TCP front door over any number of tenant systems."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        workers: int | None = None,
        obs: "Observability | bool | None" = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.host = host
        self.port = port  # 0 until start() binds
        self._requested_port = port
        self.max_inflight = max_inflight
        self._obs = Observability.coerce(obs)
        self._executor = ThreadPoolExecutor(
            max_workers=workers or min(32, (os.cpu_count() or 4) + 4),
            thread_name_prefix="serving",
        )
        self._tenants: dict[str, TenantSession] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._inflight = 0
        self._connections = 0
        self._draining = False
        self._drain_started = False
        self._drained = asyncio.Event()
        self._lifecycle = threading.Lock()

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
            if self._loop is not None:
                raise RuntimeError("serving server already started")
            loop = asyncio.new_event_loop()
            self._loop = loop
            self._thread = threading.Thread(
                target=self._run_loop,
                args=(loop,),
                name="serving-loop",
                daemon=True,
            )
            self._thread.start()
            future = asyncio.run_coroutine_threadsafe(
                self._open_listener(), loop
            )
            self.port = future.result(timeout=30)
            return (self.host, self.port)

    def _run_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            loop.close()

    async def _open_listener(self) -> int:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        return self._server.sockets[0].getsockname()[1]

    def drain(self, timeout: float | None = 60.0) -> None:
        """Graceful shutdown of serving (the loop itself keeps running).

        Stop accepting connections, refuse new requests with the typed
        :class:`ServerDraining`, wait for every in-flight request, then
        flush and persist every tenant.  Idempotent and safe to call
        concurrently — late callers wait for the first drain to finish.
        """
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        future = asyncio.run_coroutine_threadsafe(self._drain_async(), loop)
        future.result(timeout=timeout)

    async def _drain_async(self) -> None:
        if self._drain_started:
            await self._drained.wait()
            return
        self._drain_started = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [task for task in self._tasks if not task.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        loop = asyncio.get_running_loop()
        for session in self._tenants.values():
            await loop.run_in_executor(self._executor, session.drain)
        for writer in list(self._writers):
            writer.close()
        counters.add("serving_drains")
        self._drained.set()

    def stop(self, timeout: float | None = 60.0) -> None:
        """Drain (if not yet drained) and tear the loop down. Idempotent."""
        self.drain(timeout=timeout)
        with self._lifecycle:
            loop = self._loop
            if loop is None:
                return
            self._loop = None
            loop.call_soon_threadsafe(loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=timeout)
                self._thread = None
            self._server = None
            self._executor.shutdown(wait=False)

    def __enter__(self) -> "ServingServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling (event-loop side)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        counters.add("serving_connections")
        self._connections += 1
        self._set_gauge("serving_connections", self._connections)
        write_lock = asyncio.Lock()
        self._writers.add(writer)
        try:
            session = await self._handshake(reader, writer, write_lock)
            if session is None:
                return
            while True:
                try:
                    rid, op, payload = await read_frame(reader)
                except FrameError:
                    return
                await self._dispatch(
                    session, rid, op, payload, writer, write_lock
                )
        finally:
            self._writers.discard(writer)
            self._connections -= 1
            self._set_gauge("serving_connections", self._connections)
            writer.close()
            with suppress(Exception):
                await writer.wait_closed()

    async def _handshake(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> TenantSession | None:
        try:
            rid, op, payload = await read_frame(reader)
        except FrameError:
            return None
        if op != OP_HELLO:
            await self._send_error(
                writer, write_lock, rid,
                ProtocolError(f"expected HELLO, got opcode {op}"),
            )
            return None
        try:
            hello = json.loads(payload.decode("utf-8"))
            tenant_id = hello["tenant"]
        except (ValueError, KeyError, UnicodeDecodeError):
            await self._send_error(
                writer, write_lock, rid,
                ProtocolError("HELLO payload must be JSON with a tenant"),
            )
            return None
        if self._draining:
            await self._send_error(
                writer, write_lock, rid, ServerDraining("server is draining")
            )
            return None
        session = self._tenants.get(tenant_id)
        if session is None:
            await self._send_error(
                writer, write_lock, rid,
                UnknownTenantError(f"unknown tenant {tenant_id!r}"),
            )
            return None
        loop = asyncio.get_running_loop()
        reply = await loop.run_in_executor(self._executor, session.hello)
        await self._send(
            writer, write_lock, rid, OP_HELLO_OK,
            json.dumps(reply, sort_keys=True).encode("utf-8"),
        )
        return session

    async def _dispatch(
        self,
        session: TenantSession,
        rid: int,
        op: int,
        payload: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        if op not in _REQUEST_HANDLERS:
            await self._send_error(
                writer, write_lock, rid,
                ProtocolError(f"unknown opcode {op}"),
            )
            return
        try:
            self._admit(session)
        except (BackpressureRejected, ServerDraining) as exc:
            await self._send_error(writer, write_lock, rid, exc)
            return
        task = asyncio.get_running_loop().create_task(
            self._run_request(session, rid, op, payload, writer, write_lock)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _admit(self, session: TenantSession) -> None:
        """Admission control: typed rejection before any work is queued."""
        if self._draining:
            raise ServerDraining("server is draining; request rejected")
        self._observe("serving_queue_depth", float(self._inflight))
        if self._inflight >= self.max_inflight:
            counters.add("backpressure_rejections")
            raise BackpressureRejected(
                f"in-flight queue full ({self.max_inflight} requests)"
            )
        self._inflight += 1
        self._set_gauge("serving_inflight", self._inflight)
        counters.add("serving_requests")
        if self._obs.enabled:
            self._obs.metrics.inc_labeled(
                "serving_tenant_requests", tenant=session.tenant_id
            )

    async def _run_request(
        self,
        session: TenantSession,
        rid: int,
        op: int,
        payload: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        try:
            handler = getattr(session, _REQUEST_HANDLERS[op])
            blob = await loop.run_in_executor(
                self._executor, handler, payload
            )
            await self._send(writer, write_lock, rid, OP_OK, blob)
        except (ConnectionError, FrameError):
            pass  # peer went away mid-response; nothing left to tell it
        except Exception as exc:  # typed errors travel as ERROR frames
            with suppress(ConnectionError, FrameError):
                await self._send_error(writer, write_lock, rid, exc)
        finally:
            self._inflight -= 1
            self._set_gauge("serving_inflight", self._inflight)
            self._observe(
                "serving_request_seconds", time.perf_counter() - started
            )

    # ------------------------------------------------------------------
    # Frame I/O and metric helpers
    # ------------------------------------------------------------------
    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        rid: int,
        op: int,
        payload: bytes,
    ) -> None:
        frame = encode_frame(rid, op, payload)
        async with write_lock:
            writer.write(frame)
            await writer.drain()

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        rid: int,
        exc: Exception,
    ) -> None:
        await self._send(writer, write_lock, rid, OP_ERROR, encode_error(exc))

    def _observe(self, name: str, value: float) -> None:
        if self._obs.enabled:
            self._obs.metrics.observe(name, value)

    def _set_gauge(self, name: str, value: float) -> None:
        if self._obs.enabled:
            self._obs.metrics.set_gauge(name, float(value))
