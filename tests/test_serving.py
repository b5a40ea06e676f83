"""The serving layer: framing, sockets, tenants, backpressure, drain.

The headline invariant: a :func:`~repro.serving.client.remote_system`
is indistinguishable from its in-process twin — byte-identical answers
on every path (translated, naive), the same typed errors, and updates
that commit through the same freshness anchor.  Around it, the
serving-native machinery: length-prefixed framing, one request at a
time per connection, admission control with typed backpressure, and
graceful drain with durable persistence.
"""

import json
import socket
import threading
import time

import pytest

from updates_oracle import write_plaintext
from repro.core.client import canonical_node
from repro.core.storage import load_system
from repro.core.system import SecureXMLSystem, _DEFAULT_MASTER_KEY
from repro.obs import Observability
from repro.obs import MetricsRegistry
from repro.serving import (
    BackpressureRejected,
    ConnectionClosedError,
    FrameError,
    ProtocolError,
    RemoteServerError,
    RequestTimeoutError,
    ServerDraining,
    ServingConnection,
    ServingServer,
    UnknownTenantError,
    decode_error,
    decode_frame,
    encode_error,
    encode_frame,
    remote_system,
)
from repro.serving.framing import (
    OP_ERROR,
    OP_HELLO,
    OP_OK,
    OP_QUERY,
    OP_STATS,
    OP_UPDATE,
    PROTOCOL_VERSION,
)
from repro.serving.server import ReadWriteLock
from repro.xpath.evaluator import evaluate

#: Reads of the process counter total.
metrics = MetricsRegistry()

QUERIES = (
    "//patient[.//insurance//@coverage>=10000]//SSN",
    "//treat[disease='leukemia']/doctor",
    "//patient[age>36]/pname",
    "//insurance/policy#",
    "//SSN",
)
PROBE = "//patient[pname='Betty']/SSN"


@pytest.fixture
def local(healthcare_doc, healthcare_scs):
    return SecureXMLSystem.host(healthcare_doc, healthcare_scs, scheme="opt")


@pytest.fixture
def served(local):
    server = ServingServer(max_inflight=16)
    server.register_tenant("t0", local)
    address = server.start()
    yield server, address, local
    server.stop()


@pytest.fixture
def reference(healthcare_doc, healthcare_scs):
    return SecureXMLSystem.host(healthcare_doc, healthcare_scs, scheme="opt")


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip(self):
        frame = encode_frame(7, OP_QUERY, b"payload-bytes")
        (rid, op, payload), rest = decode_frame(frame + b"tail")
        assert (rid, op, payload) == (7, OP_QUERY, b"payload-bytes")
        assert rest == b"tail"

    def test_empty_payload(self):
        frame = encode_frame(1, OP_STATS, b"")
        (rid, op, payload), rest = decode_frame(frame)
        assert (rid, op, payload) == (1, OP_STATS, b"")
        assert rest == b""

    def test_partial_frame_raises_closed(self):
        frame = encode_frame(1, OP_QUERY, b"x" * 100)
        for cut in (0, 3, 10, len(frame) - 1):
            with pytest.raises(ConnectionClosedError):
                decode_frame(frame[:cut])

    def test_oversized_frame_rejected(self):
        from repro.serving.framing import MAX_FRAME_BYTES

        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(FrameError):
            decode_frame(header + b"\x00" * 16)

    def test_request_id_range(self):
        frame = encode_frame(2**63, OP_QUERY, b"")
        (rid, _, _), _ = decode_frame(frame)
        assert rid == 2**63


class TestErrorCodec:
    def test_registered_roundtrip(self):
        for exc in (
            BackpressureRejected("queue full"),
            ServerDraining("draining"),
            UnknownTenantError("nope"),
        ):
            decoded = decode_error(encode_error(exc))
            assert type(decoded) is type(exc)
            assert str(decoded) == str(exc)

    def test_subclass_travels_as_registered_base(self):
        from repro.core.system import QueryFailedError

        class ReplicaDownError(QueryFailedError):
            """A subclass the wire registry has never heard of."""

        decoded = decode_error(encode_error(ReplicaDownError("r0 down")))
        assert type(decoded) is QueryFailedError
        assert "r0 down" in str(decoded)

    def test_unregistered_type_is_untyped_remote_error(self):
        decoded = decode_error(encode_error(ZeroDivisionError("boom")))
        assert type(decoded) is RemoteServerError

    def test_undecodable_frame(self):
        assert isinstance(decode_error(b"\xff\xfe not json"), ProtocolError)


# ----------------------------------------------------------------------
# Remote byte-identity (the tentpole invariant)
# ----------------------------------------------------------------------
class TestRemoteByteIdentity:
    def test_serial_answers_identical(self, served, reference):
        _, address, local = served
        remote = remote_system(local, address, "t0")
        try:
            for query in QUERIES:
                assert (
                    remote.query(query).canonical()
                    == reference.query(query).canonical()
                ), query
        finally:
            remote.close()

    def test_naive_path_identical(self, served, reference):
        _, address, local = served
        remote = remote_system(local, address, "t0")
        try:
            assert (
                remote.naive_query(PROBE).canonical()
                == reference.naive_query(PROBE).canonical()
            )
            assert remote.last_trace.naive
        finally:
            remote.close()

    def test_unknown_tenant_rejected_at_handshake(self, served):
        _, (host, port), _ = served
        with pytest.raises(UnknownTenantError):
            ServingConnection(host, port, "no-such-tenant")

    def test_hello_reports_session_parameters(self, served, local):
        _, address, _ = served
        remote = remote_system(local, address, "t0")
        try:
            hello = remote._connection.hello
            assert hello["tenant"] == "t0"
            assert hello["protocol"] == PROTOCOL_VERSION == 2
            assert hello["epoch"] == local.hosted.epoch
        finally:
            remote.close()


class TestProtocolVersion:
    """Both ends of the HELLO compare versions: a peer on another
    response format is refused typed at the handshake, never retried as
    a tamper on its first answer."""

    def test_front_door_refuses_another_version(self, served):
        _, (host, port), _ = served
        with socket.create_connection((host, port), timeout=10) as sock:
            hello = json.dumps({"tenant": "t0", "protocol": 99}).encode()
            sock.sendall(encode_frame(0, OP_HELLO, hello))
            buffer = b""
            while True:
                try:
                    (rid, op, payload), _ = decode_frame(buffer)
                    break
                except ConnectionClosedError:
                    chunk = sock.recv(4096)
                    assert chunk, "front door closed without an answer"
                    buffer += chunk
        assert (rid, op) == (0, OP_ERROR)
        refusal = decode_error(payload)
        assert isinstance(refusal, ProtocolError)
        assert "protocol 99" in str(refusal)

    def test_client_refuses_a_hello_ok_of_another_version(
        self, served, monkeypatch
    ):
        server, (host, port), _ = served
        session = server.tenants["t0"]
        honest = session.hello
        monkeypatch.setattr(
            session, "hello", lambda: {**honest(), "protocol": 1}
        )
        with pytest.raises(ProtocolError, match="protocol 1"):
            ServingConnection(host, port, "t0")
        monkeypatch.undo()
        ServingConnection(host, port, "t0").close()


class TestRetiredOpcodes:
    @pytest.mark.parametrize("opcode", [3, 6, 17, 18])
    def test_typed_error_then_connection_still_serves(self, served, opcode):
        """3/17/18 were QUERY_STREAM/CHUNK/END and 6 was FLUSH: now
        unknown, not fatal."""
        _, address, local = served
        remote = remote_system(local, address, "t0")
        try:
            connection = remote._connection
            request = remote.client.seal_request(
                remote.client.translate(PROBE)
            )
            with pytest.raises(
                ProtocolError, match=f"unknown opcode {opcode}"
            ):
                connection.call(opcode, (8).to_bytes(4, "big") + request)
            sealed = connection.call(OP_QUERY, request)
            assert remote.client.open_response(sealed).fragments
            assert (
                remote.query(PROBE).canonical()
                == local.query(PROBE).canonical()
            )
        finally:
            remote.close()


class TestRemoteUpdates:
    def test_update_value_commits_and_serves_fresh(self, served):
        _, address, local = served
        remote = remote_system(local, address, "t0")
        try:
            epoch_before = local.hosted.epoch
            remote.update_value(PROBE, "987654")
            assert local.hosted.epoch == epoch_before + 1
            assert remote.query(PROBE).values() == ["987654"]
        finally:
            remote.close()

    def test_insert_and_delete_round_trip(self, served):
        _, address, local = served
        remote = remote_system(local, address, "t0")
        try:
            remote.insert_element(
                "//patient[pname='Matt']", "phone", "555-1234"
            )
            assert remote.query(
                "//patient[pname='Matt']/phone"
            ).values() == ["555-1234"]
            remote.delete_element("//patient[pname='Matt']/phone")
            assert len(remote.query("//patient[pname='Matt']/phone")) == 0
        finally:
            remote.close()

    def test_post_update_answers_match_inprocess(
        self, served, healthcare_doc, healthcare_scs
    ):
        _, address, local = served
        reference = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        remote = remote_system(local, address, "t0")
        try:
            remote.update_value(PROBE, "424242")
            reference.update_value(PROBE, "424242")
            for query in QUERIES:
                assert (
                    remote.query(query).canonical()
                    == reference.query(query).canonical()
                ), query
        finally:
            remote.close()

    def test_remote_close_is_idempotent(self, served):
        _, address, local = served
        remote = remote_system(local, address, "t0")
        remote.close()
        remote.close()


#: name → (writes made through one connection, a query whose predicate
#: only the re-planned field or the new tag can answer).
WRITES_SEEN_BY_THE_OTHER_CONNECTION = {
    "update-to-a-value-new-to-the-field": (
        [("update_value", "//patient[pname='Matt']/treat/disease", "measles")],
        "//patient[.//disease='measles']/SSN",
    ),
    "insert-into-a-sensitive-field": (
        [("insert_element", "//patient[pname='Matt']", "SSN", "999")],
        "//patient[SSN='999']/pname",
    ),
    "insert-of-a-tag-new-to-the-hosting": (
        [("insert_element", "//patient[pname='Matt']", "phone", "555")],
        "//patient[phone='555']/pname",
    ),
    "delete-of-a-values-last-occurrence": (
        [("delete_element", "//patient[pname='Matt']/treat")],
        "//treat[disease='diarrhea']/doctor",
    ),
    "delete-of-a-fields-last-occurrence": (
        [
            ("delete_element", "//patient[pname='Betty']/SSN"),
            ("delete_element", "//patient[pname='Matt']/SSN"),
        ],
        "//patient[SSN='276543']/pname",
    ),
    "insert-into-a-field-emptied-since-hosting": (
        [
            ("delete_element", "//patient[pname='Betty']/SSN"),
            ("delete_element", "//patient[pname='Matt']/SSN"),
            ("insert_element", "//patient[pname='Matt']", "SSN", "276543"),
        ],
        "//patient[SSN='276543']/pname",
    ),
}


class TestTwoConnections:
    """A write acknowledged to any connection is visible to the next
    query on every connection of that tenant."""

    @pytest.mark.parametrize("name", sorted(WRITES_SEEN_BY_THE_OTHER_CONNECTION))
    def test_other_connection_answers_as_the_plaintext_oracle(
        self, served, healthcare_doc, name
    ):
        _, address, local = served
        writes, query = WRITES_SEEN_BY_THE_OTHER_CONNECTION[name]
        a = remote_system(local, address, "t0")
        b = remote_system(local, address, "t0")
        try:
            client = b.client
            b.query(query)  # every layer of b is warm on the old state
            for method, *args in writes:
                getattr(a, method)(*args)
                write_plaintext(healthcare_doc, method, *args)
            expected = sorted(
                canonical_node(n) for n in evaluate(healthcare_doc, query)
            )
            assert expected or name == "delete-of-a-fields-last-occurrence"
            for handle in (b, a, local):
                assert handle.query(query).canonical() == expected
                assert handle.last_trace.plan != "naive"
            assert a.client is not b.client and b.client is client
        finally:
            a.close()
            b.close()


class TestMultiplexing:
    """Many connections share one front door: each carries one request
    at a time, and the server interleaves them."""

    def test_loadgen_hammers_one_server(
        self, healthcare_doc, healthcare_scs, reference
    ):
        """Twenty handles, four operations each, every tenth a write,
        all at once against one server.  No operation fails, every write
        lands, and the served state ends as the in-process system's.

        A query sealed before a concurrent write fails freshness and is
        re-issued; backoff is modelled, not slept, so the owner's
        patience is its attempt budget.
        """
        from repro.core.system import QueryFailedError, RetryPolicy

        local = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            retry_policy=RetryPolicy(
                max_attempts=10_000, deadline_s=float("inf")
            ),
        )
        server = ServingServer(max_inflight=16)
        server.register_tenant("t0", local)
        address = server.start()
        clients, ops_per_client, update_every = 20, 4, 10
        values = ("111111", "222222")
        handles = [
            remote_system(local, address, "t0") for _ in range(clients)
        ]
        barrier = threading.Barrier(clients, timeout=30)
        lock = threading.Lock()
        tally = {"operations": 0, "updates": 0}
        failed, written = [], []

        def drive(index, handle):
            barrier.wait()
            for step in range(ops_per_client):
                op = index * ops_per_client + step
                try:
                    if op % update_every == update_every - 1:
                        value = values[(op // update_every) % len(values)]
                        while True:
                            try:
                                handle.update_value(PROBE, value)
                                break
                            except BackpressureRejected:
                                pass  # the command never ran: re-issue it
                        with lock:
                            tally["updates"] += 1
                            written.append(value)
                    else:
                        handle.query(QUERIES[op % 3])
                except (QueryFailedError, RemoteServerError) as exc:
                    failed.append(exc)
                with lock:
                    tally["operations"] += 1

        threads = [
            threading.Thread(target=drive, args=pair)
            for pair in enumerate(handles)
        ]
        started = time.perf_counter()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            elapsed = time.perf_counter() - started
            assert not any(thread.is_alive() for thread in threads)
            assert not failed, failed
            assert tally["operations"] == clients * ops_per_client
            assert tally["updates"] == clients * ops_per_client // update_every
            assert tally["operations"] / elapsed > 0
            final = local.query(PROBE).values()
            assert len(final) == 1 and final[0] in written
            reference.update_value(PROBE, final[0])
            for query in QUERIES[:3] + (PROBE,):
                expected = reference.query(query).canonical()
                assert local.query(query).canonical() == expected
                assert handles[0].query(query).canonical() == expected
        finally:
            for handle in handles:
                handle.close()
            server.stop()


# ----------------------------------------------------------------------
# Admission control and drain
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_queue_full_rejects_with_typed_error(self, local):
        server = ServingServer(max_inflight=1)
        session = server.register_tenant("t0", local)
        gate = threading.Event()
        release = threading.Event()
        original = session.query

        def slow_query(blob):
            gate.set()
            assert release.wait(timeout=30)
            return original(blob)

        session.query = slow_query
        host, port = server.start()
        before = metrics.counter_values()
        try:
            from repro.core.client import Client

            sealer = Client(local.keyring, local.hosted)
            blob = sealer.seal_request(
                sealer.translate(PROBE), cache_key=PROBE
            )
            with ServingConnection(host, port, "t0") as busy, \
                    ServingConnection(host, port, "t0") as other:
                slow = threading.Thread(
                    target=busy.call, args=(OP_QUERY, blob)
                )
                slow.start()
                assert gate.wait(timeout=30)
                with pytest.raises(BackpressureRejected):
                    other.call(OP_QUERY, blob)
                release.set()
                slow.join(timeout=30)
                assert not slow.is_alive()
        finally:
            release.set()
            server.stop()
        delta = metrics.counters_delta(before)
        assert delta.get("backpressure_rejections", 0) >= 1

    def test_backpressure_is_absorbed_by_system_retries(
        self, healthcare_doc, healthcare_scs, reference
    ):
        """Eight handles read and write at once through one in-flight
        slot.  A remote system never surfaces BackpressureRejected on a
        query — the typed rejection subclasses TransferDropped, so the
        existing retry loop re-issues it — and the served state ends as
        the in-process system's.

        Backoff is modelled, not slept, so a rejected query is re-issued
        at once: the owner's patience is its attempt budget, and eight
        handles through one slot take tens of attempts.  Each served
        query holds the slot for 2 ms across a GIL release, as the other
        slow handlers here do: the handler runs on the thread that read
        its frame, so an unslowed one releases the slot before another
        connection's thread gets the GIL to ask for it.
        """
        from repro.core.system import QueryFailedError, RetryPolicy

        local = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            retry_policy=RetryPolicy(
                max_attempts=10_000, deadline_s=float("inf")
            ),
        )
        server = ServingServer(max_inflight=1)
        session = server.register_tenant("t0", local)
        original = session.query

        def slow_query(blob):
            time.sleep(0.002)  # holds the one slot across a GIL release
            return original(blob)

        session.query = slow_query
        address = server.start()
        handles = [remote_system(local, address, "t0") for _ in range(8)]
        barrier = threading.Barrier(len(handles), timeout=30)
        failed, written = [], []
        before = metrics.counter_values()

        def drive(index, handle):
            barrier.wait()
            for step in range(6):
                try:
                    handle.query(QUERIES[(index + step) % len(QUERIES)])
                except QueryFailedError as exc:
                    failed.append(exc)
            value = f"{index}{index}{index}"
            while True:
                try:
                    handle.update_value(PROBE, value)
                    break
                except BackpressureRejected:
                    pass  # the command never ran: re-issue it
            written.append(value)

        threads = [
            threading.Thread(target=drive, args=pair)
            for pair in enumerate(handles)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not failed, failed
            assert sorted(written) == [f"{i}{i}{i}" for i in range(8)]
            final = local.query(PROBE).values()
            assert len(final) == 1 and final[0] in written
            reference.update_value(PROBE, final[0])
            for query in QUERIES + (PROBE,):
                expected = reference.query(query).canonical()
                assert local.query(query).canonical() == expected
                for handle in handles:
                    assert handle.query(query).canonical() == expected
        finally:
            for handle in handles:
                handle.close()
            server.stop()
        delta = metrics.counters_delta(before)
        assert delta.get("backpressure_rejections", 0) >= 1


class TestDrain:
    def test_drain_rejects_new_connections(self, served):
        server, (host, port), _ = served
        server.drain()
        with pytest.raises((ServerDraining, ConnectionError, OSError)):
            ServingConnection(host, port, "t0")

    def test_drain_is_idempotent_and_counted(self, served):
        server, _, _ = served
        before = metrics.counter_values()
        server.drain()
        server.drain()
        assert metrics.counters_delta(before).get("serving_drains", 0) == 1

    def test_inflight_request_finishes_during_drain(self, local):
        server = ServingServer(max_inflight=4)
        session = server.register_tenant("t0", local)
        gate = threading.Event()
        release = threading.Event()
        original = session.query

        def slow_query(blob):
            gate.set()
            assert release.wait(timeout=30)
            return original(blob)

        session.query = slow_query
        address = server.start()
        remote = remote_system(local, address, "t0")
        result = {}

        def issue():
            result["answer"] = remote.query(PROBE).canonical()

        worker = threading.Thread(target=issue)
        worker.start()
        assert gate.wait(timeout=30)
        drainer = threading.Thread(target=server.drain)
        drainer.start()
        time.sleep(0.05)  # drain must be blocked on the in-flight request
        assert drainer.is_alive()
        release.set()
        drainer.join(timeout=30)
        worker.join(timeout=30)
        server.stop()
        remote.close()
        assert result["answer"] == local.query(PROBE).canonical()

    def test_drain_waits_for_the_reply_to_be_written(
        self, local, monkeypatch
    ):
        """A request stays in flight until its reply is on the wire: a
        drain that starts between the handler's return and the write
        must not shut the socket under the reply."""
        from repro.serving import server as server_module

        server = ServingServer(max_inflight=4)
        server.register_tenant("t0", local)
        address = server.start()
        remote = remote_system(local, address, "t0")
        writing = threading.Event()
        encode = server_module.encode_frame

        def slow_encode(rid, op, payload):
            if op == OP_OK and threading.current_thread().name.startswith(
                "serving-connection"
            ):
                writing.set()
                time.sleep(0.2)
            return encode(rid, op, payload)

        monkeypatch.setattr(server_module, "encode_frame", slow_encode)
        result = {}

        def issue():
            result["answer"] = remote.query(PROBE).canonical()

        worker = threading.Thread(target=issue)
        worker.start()
        assert writing.wait(timeout=30)
        server.drain()
        worker.join(timeout=30)
        server.stop()
        remote.close()
        assert result["answer"] == local.query(PROBE).canonical()

    def test_drain_flushes_and_persists_storage(
        self, healthcare_doc, healthcare_scs, tmp_path
    ):
        storage = str(tmp_path / "tenant0")
        local = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        server = ServingServer()
        server.register_tenant("t0", local, storage_dir=storage)
        address = server.start()
        remote = remote_system(local, address, "t0")
        remote.update_value(PROBE, "999999")
        server.stop()  # stop() drains first
        remote.close()
        restored = load_system(storage, _DEFAULT_MASTER_KEY)
        assert restored.query(PROBE).values() == ["999999"]
        assert restored.hosted.epoch == local.hosted.epoch


# ----------------------------------------------------------------------
# Multi-tenant isolation
# ----------------------------------------------------------------------
class TestMultiTenant:
    def test_tenants_are_isolated(
        self, healthcare_doc, healthcare_scs, xmark_doc, xmark_scs
    ):
        health = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        xmark = SecureXMLSystem.host(xmark_doc, xmark_scs, scheme="opt")
        server = ServingServer()
        server.register_tenant("health", health)
        server.register_tenant("xmark", xmark)
        address = server.start()
        try:
            remote_h = remote_system(health, address, "health")
            remote_x = remote_system(xmark, address, "xmark")
            try:
                assert (
                    remote_h.query("//SSN").canonical()
                    == health.query("//SSN").canonical()
                )
                assert (
                    remote_x.query("//person/name").canonical()
                    == xmark.query("//person/name").canonical()
                )
                stats_h = remote_h._connection.stats()
                stats_x = remote_x._connection.stats()
                assert stats_h["tenant"] == "health"
                assert stats_x["tenant"] == "xmark"
                assert stats_h["ops"]["query"] >= 1
            finally:
                remote_h.close()
                remote_x.close()
        finally:
            server.stop()

    def test_duplicate_tenant_id_rejected(self, local):
        server = ServingServer()
        server.register_tenant("t0", local)
        with pytest.raises(ValueError, match="already registered"):
            server.register_tenant("t0", local)


# ----------------------------------------------------------------------
# Serving metrics (satellite: obs integration)
# ----------------------------------------------------------------------
class TestServingMetrics:
    def test_traffic_populates_gauges_and_labeled_counters(self, local):
        obs = Observability()
        server = ServingServer(obs=obs)
        server.register_tenant("t0", local)
        address = server.start()
        remote = remote_system(local, address, "t0")
        try:
            remote.query(PROBE)
            remote.query(PROBE)
        finally:
            remote.close()
            server.stop()
        snapshot = obs.metrics.snapshot()
        assert snapshot["labeled"]["serving_tenant_requests"]['tenant="t0"'] >= 2
        assert snapshot["histograms"]["serving_request_seconds"]["count"] >= 2
        assert snapshot["histograms"]["serving_queue_depth"]["count"] >= 2
        assert "serving_connections" in snapshot["gauges"]
        text = obs.metrics.to_prometheus()
        assert 'repro_serving_tenant_requests_total{tenant="t0"}' in text
        assert "repro_serving_connections" in text


# ----------------------------------------------------------------------
# ReadWriteLock (the tenant-session concurrency primitive)
# ----------------------------------------------------------------------
class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = []
        barrier = threading.Barrier(3, timeout=10)

        def reader():
            with lock.read():
                inside.append(1)
                barrier.wait()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(inside) == 3

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        entered = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write():
                entered.set()
                assert release.wait(timeout=10)
                order.append("write")

        def reader():
            with lock.read():
                order.append("read")

        w = threading.Thread(target=writer)
        w.start()
        assert entered.wait(timeout=10)
        r = threading.Thread(target=reader)
        r.start()
        time.sleep(0.05)
        release.set()
        w.join(timeout=10)
        r.join(timeout=10)
        assert order == ["write", "read"]

    def test_waiting_writer_blocks_new_readers(self):
        """Writer priority: once a writer queues, new readers wait."""
        lock = ReadWriteLock()
        order = []
        first_reader_in = threading.Event()
        first_reader_out = threading.Event()

        def long_reader():
            with lock.read():
                first_reader_in.set()
                assert first_reader_out.wait(timeout=10)
            order.append("r1-out")

        def writer():
            with lock.write():
                order.append("write")

        def late_reader():
            with lock.read():
                order.append("r2")

        r1 = threading.Thread(target=long_reader)
        r1.start()
        assert first_reader_in.wait(timeout=10)
        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.05)  # writer is now waiting on r1
        r2 = threading.Thread(target=late_reader)
        r2.start()
        time.sleep(0.05)
        first_reader_out.set()
        for t in (r1, w, r2):
            t.join(timeout=10)
        assert order.index("write") < order.index("r2")

    def test_release_on_another_thread(self):
        """The lock must not assume thread ownership."""
        lock = ReadWriteLock()
        ctx = lock.read()
        t1 = threading.Thread(target=ctx.__enter__)
        t1.start()
        t1.join(timeout=10)
        t2 = threading.Thread(target=ctx.__exit__, args=(None, None, None))
        t2.start()
        t2.join(timeout=10)
        with lock.write():  # would deadlock if the read leaked
            pass


# ----------------------------------------------------------------------
# Freshness on the served path: one epoch, no replay memory
# ----------------------------------------------------------------------
class TestFreshnessWindow:
    """The freshness window is exactly one epoch wide.

    A sealed request or command verifies only at the anchor it was
    sealed at.  One that lost a race to a commit is refused with the
    typed :class:`~repro.core.integrity.RollbackDetectedError` and the
    client re-seals; every applied write moves the epoch, so a captured
    command re-sent after it landed fails the same check.
    """

    def _sealed_query(self, system, xpath):
        from repro.core.client import Client

        client = Client(system.keyring, system.hosted)
        return client.seal_request(client.translate(xpath))

    def _sealed_update(self, system, new_value):
        request_key, _ = system.keyring.session_keys()
        command = {"op": "update_value", "xpath": PROBE,
                   "new_value": new_value}
        payload = json.dumps(command, sort_keys=True).encode("utf-8")
        return system.hosted.seal(request_key, payload)[0]

    def test_strict_server_rejects_superseded_request(self, local):
        from repro.core.integrity import RollbackDetectedError

        blob = self._sealed_query(local, "//SSN")
        local.update_value(PROBE, "333444")
        with pytest.raises(RollbackDetectedError):
            local.server.answer_wire(blob)

    def test_window_bounds_the_accepted_lag(self, local):
        """One commit of lag is already too much, on the tenant's
        command path as on its query path: a command that waited out a
        concurrent writer is refused, not applied."""
        from repro.core.integrity import RollbackDetectedError

        session = ServingServer().register_tenant("t0", local)
        query = self._sealed_query(local, "//SSN")
        command = self._sealed_update(local, "777888")
        local.update_value("//patient[pname='Matt']/SSN", "999000")
        with pytest.raises(RollbackDetectedError) as caught:
            session.update(command)
        assert caught.value.epoch_lag == 1
        with pytest.raises(RollbackDetectedError):
            session.query(query)
        assert local.query(PROBE).values() == ["763895"]

    def test_replayed_update_command_is_rejected(self, local):
        """A captured OP_UPDATE blob is not re-applicable: the write it
        carried moved the epoch, so the re-sent blob fails freshness —
        typed, with no replay memory — and the value stays at the
        newer write."""
        from repro.core.integrity import RollbackDetectedError

        session = ServingServer().register_tenant("t0", local)
        blob = self._sealed_update(local, "100001")
        session.update(blob)
        assert local.query(PROBE).values() == ["100001"]
        local.update_value(PROBE, "100002")  # a newer legitimate write
        with pytest.raises(RollbackDetectedError):
            session.update(blob)  # wire adversary re-sends the capture
        # The rollback the replay attempted did not happen.
        assert local.query(PROBE).values() == ["100002"]

    def test_replay_rejected_as_typed_error_over_socket(self, served):
        from repro.core.integrity import RollbackDetectedError

        _, (host, port), local = served
        blob = self._sealed_update(local, "200002")
        with ServingConnection(host, port, "t0") as conn:
            conn.call(OP_UPDATE, blob)
            with pytest.raises(RollbackDetectedError):
                conn.call(OP_UPDATE, blob)
        assert local.query(PROBE).values() == ["200002"]


# ----------------------------------------------------------------------
# Control-plane authentication (stats is a sealed command; flush is gone)
# ----------------------------------------------------------------------
class TestControlPlaneAuth:
    """Nothing beyond the sealed data plane is reachable by an
    unauthenticated peer: knowing a tenant id (HELLO is unauthenticated)
    must not allow dropping the tenant's warm caches or reading its
    metadata."""

    def test_unsealed_flush_and_stats_are_rejected(self, served):
        from repro.core.integrity import TamperedRequestError

        _, (host, port), _ = served
        with ServingConnection(host, port, "t0") as conn:
            for payload in (b"", b"\x00" * 96):
                with pytest.raises(TamperedRequestError):
                    conn.call(OP_STATS, payload)
                with pytest.raises(ProtocolError, match="opcode 6"):
                    conn.call(6, payload)  # the retired FLUSH

    def test_sealed_stats_response_is_verified(self, served):
        _, address, local = served
        remote = remote_system(local, address, "t0")
        try:
            remote.query(PROBE)
            stats = remote._connection.stats()
            assert stats["tenant"] == "t0"
            assert stats["ops"]["query"] >= 1
        finally:
            remote.close()

    def test_connection_without_keys_cannot_issue_commands(self, served):
        from repro.serving import ServingError

        _, (host, port), _ = served
        connection = ServingConnection(host, port, "t0")
        try:
            with pytest.raises(ServingError):
                connection.stats()
        finally:
            connection.close()

    def test_flush_replay_is_rejected(self, served):
        """A flush does not move the epoch, so a captured sealed flush
        blob would stay valid for as long as no write lands: the front
        door no longer serves one at all.  An authentic flush sealed at
        the live anchor is refused typed every time it is sent, and the
        tenant's warm caches survive."""
        _, (host, port), local = served
        local.query(PROBE)
        warm = len(local.server._fragment_cache.live())
        request_key, _ = local.keyring.session_keys()
        blob, _ = local.hosted.seal(request_key, b'{"op": "flush"}')
        with ServingConnection(host, port, "t0") as conn:
            for _ in range(2):
                with pytest.raises(ProtocolError, match="opcode 6"):
                    conn.call(6, blob)
        assert warm and len(local.server._fragment_cache.live()) == warm

    def test_remote_flush_empties_the_client_half_only(self, served):
        _, address, local = served
        remote = remote_system(local, address, "t0")
        try:
            remote.query(PROBE)
            warm = len(local.server._fragment_cache.live())
            remote.flush_caches()
            assert not remote.client._block_cache.live()
            assert warm and len(local.server._fragment_cache.live()) == warm
            assert remote.query(PROBE).canonical() == (
                local.query(PROBE).canonical()
            )
        finally:
            remote.close()


# ----------------------------------------------------------------------
# Client-side request timeout
# ----------------------------------------------------------------------
class TestClientTimeout:
    def test_timeout_raises_typed_error_and_drops_the_late_answer(
        self, local
    ):
        """A timed-out request surfaces as the typed RequestTimeoutError
        and the connection stays usable: the next request's response is
        its own, not the abandoned request's late answer."""
        from repro.core.client import Client

        server = ServingServer(max_inflight=4)
        session = server.register_tenant("t0", local)
        gate = threading.Event()
        release = threading.Event()
        original = session.query

        def slow_query(blob):
            gate.set()
            assert release.wait(timeout=30)
            return original(blob)

        session.query = slow_query
        host, port = server.start()
        sealer = Client(local.keyring, local.hosted)
        first, second = QUERIES[0], PROBE
        blobs = {
            query: sealer.seal_request(
                sealer.translate(query), cache_key=query
            )
            for query in (first, second)
        }
        expected = {
            query: sealer.open_response(
                local.server.answer_wire(blob)
            ).candidate_counts
            for query, blob in blobs.items()
        }
        assert expected[first] != expected[second]
        connection = ServingConnection(host, port, "t0", timeout=0.5)
        try:
            with pytest.raises(RequestTimeoutError):
                connection.call(OP_QUERY, blobs[first])
            release.set()
            session.query = original
            sealed = connection.call(OP_QUERY, blobs[second])
            response = sealer.open_response(sealed)
            assert response.candidate_counts == expected[second]
        finally:
            release.set()
            connection.close()
            server.stop()


# ----------------------------------------------------------------------
# One pipeline: the socket path is the in-process path plus a socket
# ----------------------------------------------------------------------
class TestOnePipeline:
    def test_remote_trace_has_the_inprocess_shape(self, served, reference):
        """The owner's trace of a remote query is the in-process trace:
        both transfers hang under ``attempt``, and ``server`` is a leaf
        (what the server does happens on the far side of the socket)."""
        _, address, local = served

        def shape(span):
            if span.name == "server":
                return ("server",)
            return (span.name, tuple(shape(child) for child in span.children))

        remote = remote_system(local, address, "t0")
        try:
            for query in (PROBE, QUERIES[0]):
                for _ in range(2):  # cold, then warm
                    remote.query(query)
                    reference.query(query)
                    assert shape(remote.last_trace.span) == shape(
                        reference.last_trace.span
                    ), query
        finally:
            remote.close()

    def test_a_dropped_transfer_is_diagnosed_over_a_socket(self, served):
        from repro.core.system import QueryFailedError
        from fault_channel import FaultPolicy, FaultyChannel

        _, address, local = served
        channel = FaultyChannel(policy=FaultPolicy.symmetric(drop=1.0))
        remote = remote_system(local, address, "t0", channel=channel)
        try:
            with pytest.raises(QueryFailedError, match="last fault drop"):
                remote.query(PROBE)
        finally:
            remote.close()

    def test_a_remote_handle_starts_no_thread(self, served):
        """Compared as sets, not counts.  The front door runs in this
        process and gives each connection its own thread, so a handle's
        arrival adds exactly that thread; the client adds none, and the
        door's thread exits once the handle closes."""
        _, address, local = served
        before = set(threading.enumerate())
        remote = remote_system(local, address, "t0")
        remote.query(PROBE)
        added = set(threading.enumerate()) - before
        assert [thread.name for thread in added] == ["serving-connection"]
        remote.close()
        for thread in added:
            thread.join(timeout=10)
            assert not thread.is_alive()


# ----------------------------------------------------------------------
# One thread per connection: what the blocking door must keep
# ----------------------------------------------------------------------
def _door_threads(before):
    return [
        thread for thread in threading.enumerate()
        if thread.name.startswith("serving-") and thread not in before
    ]


def _raw_session(host, port):
    """A bare socket past the HELLO, for sending frames by hand."""
    sock = socket.create_connection((host, port), timeout=10)
    hello = json.dumps({"tenant": "t0", "protocol": PROTOCOL_VERSION})
    sock.sendall(encode_frame(0, OP_HELLO, hello.encode()))
    buffer = b""
    while True:
        try:
            (_, op, _), _ = decode_frame(buffer)
            break
        except ConnectionClosedError:
            chunk = sock.recv(4096)
            assert chunk, "front door closed during the handshake"
            buffer += chunk
    assert op != OP_ERROR
    return sock


def _closed_by_peer(sock):
    """Whether the front door has closed ``sock`` (EOF or reset)."""
    try:
        return sock.recv(4096) == b""
    except ConnectionResetError:
        return True


class TestThreadPerConnection:
    def test_a_stalled_half_header_does_not_delay_another_connection(
        self, served
    ):
        """Each connection blocks on its own thread: one peer stuck
        mid-header (before its HELLO, or after it) holds up no other."""
        _, (host, port), local = served
        expected = local.query(PROBE).canonical()
        stalled = [
            socket.create_connection((host, port), timeout=10),
            _raw_session(host, port),
        ]
        remote = remote_system(local, (host, port), "t0")
        try:
            for sock in stalled:
                sock.sendall(b"\x00\x00")  # half of a length prefix
            started = time.perf_counter()
            for _ in range(3):
                assert remote.query(PROBE).canonical() == expected
            assert time.perf_counter() - started < 5.0
        finally:
            remote.close()
            for sock in stalled:
                sock.close()

    def test_an_oversized_prefix_closes_only_its_connection(self, served):
        from repro.serving.framing import MAX_FRAME_BYTES

        _, (host, port), local = served
        expected = local.query(PROBE).canonical()
        bystander = remote_system(local, (host, port), "t0")
        offender = _raw_session(host, port)
        try:
            offender.sendall(
                (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"\x00" * 64
            )
            assert _closed_by_peer(offender)
            assert bystander.query(PROBE).canonical() == expected
            late = remote_system(local, (host, port), "t0")
            try:
                assert late.query(PROBE).canonical() == expected
            finally:
                late.close()
        finally:
            offender.close()
            bystander.close()

    def test_admission_never_runs_more_handlers_than_max_inflight(
        self, healthcare_doc, healthcare_scs
    ):
        """The in-flight count is shared by every connection thread: under
        a short switch interval, six handles through two slots never have
        a third handler running, and the count ends at zero."""
        import sys

        from repro.core.system import RetryPolicy

        local = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            retry_policy=RetryPolicy(
                max_attempts=10_000, deadline_s=float("inf")
            ),
        )
        server = ServingServer(max_inflight=2)
        session = server.register_tenant("t0", local)
        original, lock = session.query, threading.Lock()
        running, peak = [0], [0]

        def counted_query(blob):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                time.sleep(0.001)
                return original(blob)
            finally:
                with lock:
                    running[0] -= 1

        session.query = counted_query
        address = server.start()
        handles = [remote_system(local, address, "t0") for _ in range(6)]
        expected = local.query(PROBE).canonical()
        answers = []

        def drive(handle):
            for _ in range(8):
                answers.append(handle.query(PROBE).canonical())

        threads = [
            threading.Thread(target=drive, args=(handle,))
            for handle in handles
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            for handle in handles:
                handle.close()
            server.stop(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * 48
        assert 1 <= peak[0] <= 2
        assert server.inflight == 0

    def test_stop_leaves_no_door_thread_and_idle_handles_fail_typed(
        self, local
    ):
        """An idle handle (past its HELLO, no request yet) and a bare
        connection that never sent a byte both have a thread blocked in
        ``recv``; ``stop()`` ends both, and the handle's next call is a
        typed connection error at once, not a wait for its timeout."""
        before = set(threading.enumerate())
        server = ServingServer()
        server.register_tenant("t0", local)
        host, port = server.start()
        idle = remote_system(local, (host, port), "t0")
        silent = socket.create_connection((host, port), timeout=10)
        try:
            deadline = time.monotonic() + 10
            while len(_door_threads(before)) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)  # until the door has accepted `silent`
            names = sorted(thread.name for thread in _door_threads(before))
            assert names == [
                "serving-accept", "serving-connection", "serving-connection"
            ]
            server.stop()
            assert not _door_threads(before)
            assert _closed_by_peer(silent)
            started = time.perf_counter()
            with pytest.raises(ConnectionClosedError):
                idle.query(PROBE)
            assert time.perf_counter() - started < 5.0
        finally:
            silent.close()
            idle.close()
            server.stop()
