"""The serving layer: framing, sockets, tenants, backpressure, drain.

The headline invariant: a :func:`~repro.serving.client.remote_system`
is indistinguishable from its in-process twin — byte-identical answers
on every path (translated, naive), the same typed errors, and updates
that commit through the same freshness anchor.  Around it, the
serving-native machinery: length-prefixed framing, request multiplexing
over one connection, admission control with typed backpressure, and
graceful drain with durable persistence.
"""

import asyncio
import json
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
    run_load,
)
from repro.serving.framing import OP_QUERY, OP_STATS, OP_UPDATE
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
            assert hello["protocol"] == 1
            assert hello["epoch"] == local.hosted.epoch
        finally:
            remote.close()


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


# ----------------------------------------------------------------------
# Multiplexing: many in-flight requests per connection
# ----------------------------------------------------------------------
class TestMultiplexing:
    def test_interleaved_requests_on_one_connection(self, served, local):
        """Issue every query concurrently over a single connection and
        check each response demultiplexes back to its own request."""
        from repro.core.client import Client
        from repro.serving.client import AsyncServingClient

        _, (host, port), _ = served
        sealer = Client(local.keyring, local.hosted)
        expected = {
            query: local.query(query).canonical() for query in QUERIES
        }

        async def drive():
            conn = await AsyncServingClient.open(host, port, "t0")
            try:
                async def one(query):
                    blob = sealer.seal_request(
                        sealer.translate(query), cache_key=query
                    )
                    sealed = await conn.call(OP_QUERY, blob)
                    return query, sealer.open_response(sealed)
                pairs = await asyncio.gather(
                    *[one(q) for q in QUERIES for _ in range(3)]
                )
            finally:
                await conn.close()
            return pairs

        for query, response in asyncio.run(drive()):
            answer = local.client.assemble(
                local.client.decrypt_fragments(response)
            )
            del answer  # decode path exercised; identity checked below
            assert response.candidate_counts is not None
        # Cross-check a full pipeline pass per query string.
        remote = remote_system(local, (host, port), "t0")
        try:
            for query in QUERIES:
                assert remote.query(query).canonical() == expected[query]
        finally:
            remote.close()

    def test_loadgen_hammers_one_server(self, served, local):
        _, address, _ = served
        report = run_load(
            address,
            "t0",
            local,
            queries=list(QUERIES[:3]),
            clients=20,
            ops_per_client=4,
            update_ops=[
                {"op": "update_value", "xpath": PROBE, "new_value": "111111"},
                {"op": "update_value", "xpath": PROBE, "new_value": "222222"},
            ],
            update_every=10,
        )
        assert report.failures == 0, report
        assert report.operations == 80
        assert report.updates > 0
        assert report.qps > 0


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
            from repro.serving.client import AsyncServingClient

            sealer = Client(local.keyring, local.hosted)
            blob = sealer.seal_request(
                sealer.translate(PROBE), cache_key=PROBE
            )

            async def drive():
                conn = await AsyncServingClient.open(host, port, "t0")
                try:
                    slow = asyncio.ensure_future(conn.call(OP_QUERY, blob))
                    await asyncio.get_running_loop().run_in_executor(
                        None, gate.wait, 30
                    )
                    with pytest.raises(BackpressureRejected):
                        await conn.call(OP_QUERY, blob)
                    release.set()
                    await slow
                finally:
                    await conn.close()

            asyncio.run(drive())
        finally:
            release.set()
            server.stop()
        delta = metrics.counters_delta(before)
        assert delta.get("backpressure_rejections", 0) >= 1

    def test_backpressure_is_absorbed_by_system_retries(self, local):
        """A remote system never surfaces BackpressureRejected — the
        typed rejection subclasses TransferDropped, so the existing
        retry/backoff loop re-issues and the answer still lands."""
        server = ServingServer(max_inflight=1)
        server.register_tenant("t0", local)
        address = server.start()
        try:
            report = run_load(
                address, "t0", local,
                queries=list(QUERIES[:2]),
                clients=10,
                ops_per_client=3,
            )
            assert report.failures == 0, report
        finally:
            server.stop()


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
        from repro.serving.client import AsyncServingClient

        _, (host, port), local = served
        blob = self._sealed_update(local, "200002")

        async def drive():
            conn = await AsyncServingClient.open(host, port, "t0")
            try:
                await conn.call(OP_UPDATE, blob)
                with pytest.raises(RollbackDetectedError):
                    await conn.call(OP_UPDATE, blob)
            finally:
                await conn.close()

        asyncio.run(drive())
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
        from repro.serving.client import AsyncServingClient

        _, (host, port), _ = served

        async def drive():
            conn = await AsyncServingClient.open(host, port, "t0")
            try:
                for payload in (b"", b"\x00" * 96):
                    with pytest.raises(TamperedRequestError):
                        await conn.call(OP_STATS, payload)
                    with pytest.raises(ProtocolError, match="opcode 6"):
                        await conn.call(6, payload)  # the retired FLUSH
            finally:
                await conn.close()

        asyncio.run(drive())

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
        from repro.serving.client import AsyncServingClient

        _, (host, port), local = served
        local.query(PROBE)
        warm = len(local.server._fragment_cache.live())
        request_key, _ = local.keyring.session_keys()
        blob, _ = local.hosted.seal(request_key, b'{"op": "flush"}')

        async def drive():
            conn = await AsyncServingClient.open(host, port, "t0")
            try:
                for _ in range(2):
                    with pytest.raises(ProtocolError, match="opcode 6"):
                        await conn.call(6, blob)
            finally:
                await conn.close()

        asyncio.run(drive())
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
    def test_timeout_raises_typed_error_and_cleans_pending(self, local):
        """A timed-out request must cancel its coroutine on the client
        loop (so the _pending entry is dropped, and a late frame cannot
        be mis-delivered) and surface as the typed RequestTimeoutError;
        the connection stays usable afterwards."""
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
        blob = sealer.seal_request(sealer.translate(PROBE), cache_key=PROBE)
        connection = ServingConnection(host, port, "t0", timeout=0.5)
        try:
            with pytest.raises(RequestTimeoutError):
                connection.call(OP_QUERY, blob)
            release.set()
            session.query = original
            deadline = time.time() + 10
            while connection._client._pending and time.time() < deadline:
                time.sleep(0.01)
            assert connection._client._pending == {}
            # The connection is still healthy: a fresh request gets its
            # own id and round-trips normally.
            sealed = connection.call(OP_QUERY, blob)
            assert sealer.open_response(sealed) is not None
        finally:
            release.set()
            connection.close()
            server.stop()
