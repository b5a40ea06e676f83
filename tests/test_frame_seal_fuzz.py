"""Decoder fuzz targets for the serving frame and the integrity seal.

Two decoders read bytes a peer chooses before anything is authenticated:

* ``serving/framing.decode_frame`` — the sans-IO core of ``read_frame``,
  which both ends of a connection call on every frame;
* ``core/integrity.unseal_fresh``, as ``HostedDatabase.unseal`` calls it
  for every sealed request, command and response, and ``unseal`` for the
  sealed replies to commands.

The properties, in the shape of ``tests/test_message_fuzz.py``:

* any frame round-trips, and a decoded frame re-encodes to exactly the
  bytes it was split from;
* arbitrary bytes and mutations of real frames decode to a frame or raise
  ``FrameError`` (``ConnectionClosedError`` for a partial one), nothing
  else;
* a length prefix up to ``MAX_FRAME_BYTES`` on a short buffer raises
  before anything is allocated, and over a socket ``read_frame`` holds
  only the bytes that arrived;
* arbitrary bytes and mutations of real sealed blobs open to the sealed
  payload only when the blob is the one sealed, and otherwise raise the
  caller's tamper error — never a freshness error, which only an
  authenticated header may raise;
* opening a blob allocates within a fixed multiple of its length.
"""

import socket
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.integrity import (
    IntegrityError,
    RollbackDetectedError,
    TamperedRequestError,
    TamperedResponseError,
    seal,
    unseal,
)
from repro.core.system import SecureXMLSystem
from repro.serving.framing import (
    MAX_FRAME_BYTES,
    OP_HELLO,
    OP_OK,
    OP_QUERY,
    ConnectionClosedError,
    FrameError,
    decode_frame,
    encode_frame,
    read_frame,
)
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)

QUERIES = ("//patient", "//treat/disease", "//SSN", "/hospital")

_mutations = st.lists(
    st.tuples(
        st.sampled_from(["flip", "drop", "insert", "truncate"]),
        st.floats(min_value=0, max_value=1, exclude_max=True),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=4,
)


def mutate(original: bytes, mutations) -> bytes:
    payload = bytearray(original)
    for kind, where, byte in mutations:
        at = int(where * len(payload))
        if kind == "flip" and payload:
            payload[at] ^= byte or 1
        elif kind == "drop" and payload:
            del payload[at]
        elif kind == "insert":
            payload.insert(at, byte)
        else:
            del payload[at:]
    return bytes(payload)


@pytest.fixture(scope="module")
def hosting():
    """A healthcare hosting, its session keys and real sealed blobs."""
    system = SecureXMLSystem.host(
        build_healthcare_database(), healthcare_constraints(), scheme="opt"
    )
    client = system.client
    requests = [client.seal_request(client.translate(q)) for q in QUERIES]
    responses = [system.server.answer_wire(request) for request in requests]
    request_key, response_key = system.keyring.session_keys()
    return system, request_key, response_key, requests, responses


# ----------------------------------------------------------------------
# (a) The frame
# ----------------------------------------------------------------------
def _decodes_or_refuses(buffer: bytes) -> None:
    try:
        (request_id, opcode, payload), rest = decode_frame(buffer)
    except FrameError:  # ConnectionClosedError included
        return
    assert encode_frame(request_id, opcode, payload) + rest == buffer


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=255),
    st.binary(max_size=64),
    st.binary(max_size=16),
)
def test_any_frame_round_trips(request_id, opcode, payload, rest):
    frame = encode_frame(request_id, opcode, payload)
    assert decode_frame(frame + rest) == ((request_id, opcode, payload), rest)


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=64))
@example(b"")
@example(b"\x00\x00\x00")
@example(b"\x00\x00\x00\x08" + b"\x00" * 8)  # one byte below the header
@example(b"\x00\x00\x00\x09" + b"\x00" * 9)  # the empty frame
@example(MAX_FRAME_BYTES.to_bytes(4, "big") + b"\x00" * 9)
@example((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"\x00" * 9)
@example(b"\xff\xff\xff\xff")
def test_any_bytes_decode_or_are_refused(buffer):
    _decodes_or_refuses(buffer)


@pytest.fixture(scope="module")
def real_frames(hosting):
    _system, _, _, requests, responses = hosting
    hello = b'{"protocol": 3, "tenant": "t0"}'
    return [
        encode_frame(1, OP_HELLO, hello),
        *(encode_frame(n, OP_QUERY, blob) for n, blob in enumerate(requests)),
        *(encode_frame(n, OP_OK, blob) for n, blob in enumerate(responses)),
    ]


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data(), _mutations)
def test_mutated_real_frames_decode_or_are_refused(
    real_frames, data, mutations
):
    frames = data.draw(st.lists(st.sampled_from(real_frames), min_size=1,
                                max_size=3))
    _decodes_or_refuses(mutate(b"".join(frames), mutations))


@pytest.mark.parametrize("claimed", [9, 1 << 20, MAX_FRAME_BYTES])
def test_a_length_prefix_on_a_short_buffer_allocates_nothing(claimed):
    """The cap and the buffer's length are checked before any slice: a
    peer that claims a large frame and sends little costs no memory."""
    buffer = claimed.to_bytes(4, "big") + b"\x00" * 8
    decode_frame(encode_frame(0, 0, b""))  # warm the code path
    tracemalloc.start()
    try:
        started = time.perf_counter()
        with pytest.raises(ConnectionClosedError):
            decode_frame(buffer)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096
    assert elapsed < 1.0


def test_read_frame_holds_only_the_bytes_that_arrived():
    """Over a socket, a prefix claiming the cap followed by a few bytes
    and a hang-up is a closed connection, read in ``recv``-sized steps;
    a prefix over the cap is refused as soon as it is in, without
    waiting for a byte more."""
    sender, receiver = socket.socketpair()
    with sender, receiver:
        receiver.settimeout(5)
        sender.sendall(MAX_FRAME_BYTES.to_bytes(4, "big") + b"\x00" * 1000)
        sender.shutdown(socket.SHUT_WR)
        buffer = bytearray()
        tracemalloc.start()
        try:
            with pytest.raises(ConnectionClosedError):
                read_frame(receiver, buffer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(buffer) == 1004
        assert peak < 1 << 20
    sender, receiver = socket.socketpair()
    with sender, receiver:
        receiver.settimeout(5)
        sender.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(FrameError) as refused:
            read_frame(receiver, bytearray())
        assert not isinstance(refused.value, ConnectionClosedError)


# ----------------------------------------------------------------------
# (b) The seal
# ----------------------------------------------------------------------
def _opens_or_refuses(open_blob, error, blob, original, payload):
    """``open_blob(blob)`` gives back ``payload`` only for the sealed
    ``original``; anything else is ``error``, the MAC's verdict."""
    try:
        opened = open_blob(blob)
    except IntegrityError as exc:
        assert type(exc) is error, type(exc)
        assert blob != original
        return
    assert blob == original and opened == payload


@pytest.fixture(scope="module")
def openers(hosting):
    """Each real blob with how the system opens it, and what it holds."""
    system, request_key, response_key, requests, responses = hosting
    hosted = system.hosted

    def fresh(key, error):
        return lambda blob: hosted.unseal(key, blob, error=error)[0]

    ack = b'{"applied": true, "epoch": 0}'
    opened = [
        (fresh(request_key, TamperedRequestError), TamperedRequestError, blob)
        for blob in requests
    ] + [
        (fresh(response_key, TamperedResponseError), TamperedResponseError,
         blob)
        for blob in responses
    ]
    return [
        (open_blob, error, blob, open_blob(blob))
        for open_blob, error, blob in opened
    ] + [(
        lambda blob: unseal(response_key, blob, error=TamperedResponseError),
        TamperedResponseError,
        seal(response_key, ack),
        ack,
    )]


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.binary(max_size=128))
@example(b"rxi2")
@example(b"rxi2" + bytes(72))
@example(b"rxi1" + bytes(32))
def test_any_bytes_are_refused_typed(openers, junk):
    for open_blob, error, original, payload in openers:
        _opens_or_refuses(open_blob, error, junk, original, payload)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data(), _mutations)
def test_mutated_real_blobs_open_or_are_refused(openers, data, mutations):
    open_blob, error, original, payload = data.draw(st.sampled_from(openers))
    _opens_or_refuses(
        open_blob, error, mutate(original, mutations), original, payload
    )


def test_an_untouched_blob_from_an_earlier_epoch_is_a_rollback():
    """Only a blob whose MAC verifies reaches the freshness check."""
    system = SecureXMLSystem.host(
        build_healthcare_database(), healthcare_constraints(), scheme="opt"
    )
    client = system.client
    request = client.seal_request(client.translate("//SSN"))
    blob = system.server.answer_wire(request)
    _, response_key = system.keyring.session_keys()
    system.update_value("//patient[pname='Matt']/SSN", "111111")
    with pytest.raises(RollbackDetectedError):
        system.hosted.unseal(response_key, blob, error=TamperedResponseError)


def test_opening_allocates_linearly_in_the_blob(hosting):
    system, _, response_key, _, responses = hosting
    big = max(responses, key=len)
    hosted = system.hosted
    padded = big[:200] + bytes(1 << 20)
    for blob in (big, mutate(big, [("flip", 0.5, 7)]), padded):
        try:
            hosted.unseal(response_key, blob, error=TamperedResponseError)
        except IntegrityError:
            pass
        tracemalloc.start()
        try:
            try:
                hosted.unseal(response_key, blob, error=TamperedResponseError)
            except IntegrityError:
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(blob) + 4096, (len(blob), peak)
