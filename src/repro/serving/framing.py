"""Length-prefixed wire framing for the serving layer.

The in-process pipeline already has a canonical byte encoding for every
message (:mod:`repro.netsim.message`) and a freshness envelope around it
(:mod:`repro.core.integrity`); what a real socket adds is
*delimitation*.  One frame is::

    u32 BE length | u64 BE request id | u8 opcode | payload

where ``length`` covers everything after itself (id + opcode + payload).
A connection carries one request at a time.  The request id is chosen by
the client and echoed by the server on the reply, so a client that gave
up on a request (a timeout) can recognize and drop its late answer.

The framing is deliberately dumb: no compression, no negotiation beyond
the HELLO exchange, and a hard size cap so a garbage length prefix
cannot make the reader allocate unbounded memory.  Everything
security-relevant (MACs, freshness, typed tamper errors) lives in the
*payload* bytes, which are exactly the sealed blobs the in-process path
ships — the frame header is unauthenticated transport metadata, like TCP
headers, and mangling it yields a connection error, never a wrong
answer.
"""

from __future__ import annotations

import socket
import struct

#: Frames larger than this are a protocol violation (or garbage reaching
#: the port); a full-database ship of the benchmark workloads is a few
#: MB, so 256 MiB leaves orders of magnitude of headroom.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Bytes asked of the socket per read.  A read allocates its whole size
#: up front, however few bytes arrive: one 1.5 KB message read at 256 KiB
#: took about 8 us, at this size 1 us (Linux, 2-vCPU VM, socketpair).
_RECV_BYTES = 1 << 16

#: u64 request id + u8 opcode (what the length prefix counts besides the
#: payload itself).
_HEAD = struct.Struct("!QB")

# Client -> server opcodes.
OP_HELLO = 1  # JSON {"tenant": ..., "protocol": 5}
OP_QUERY = 2  # sealed translated-query request (answer_wire)
OP_UPDATE = 5  # freshness-sealed JSON update command
# 4 (the naive baseline is a query plan), 6 (an epoch-less, so
# replayable, cache flush) and 7 (a sealed stats read whose replay bumped
# a server-side tally) are retired: unknown opcodes to the front door.

# Server -> client opcodes.
OP_OK = 16  # complete response payload for the request id
OP_ERROR = 19  # JSON {"error": <type name>, "message": ...}
OP_HELLO_OK = 20  # JSON session parameters (tenant, protocol, epoch)

#: What HELLO and HELLO_OK both carry; a peer on another version is
#: refused at the handshake.  5: an update's ack names the SHA-256 of the
#: command it acknowledges; 4: no stats opcode; 3: no naive opcode and
#: no naive flag on a response, whose fragments cross as an ancestor row
#: table and a text column (:mod:`repro.netsim.message`) since 2.
PROTOCOL_VERSION = 5


class FrameError(Exception):
    """A frame violated the framing contract (size cap, short header)."""


class ConnectionClosedError(FrameError):
    """The peer closed the connection (possibly mid-frame)."""


def encode_frame(request_id: int, opcode: int, payload: bytes) -> bytes:
    """Serialize one frame; the inverse of :func:`decode_frame`."""
    if not 0 <= request_id < 2**64:
        raise FrameError(f"request id {request_id} out of u64 range")
    if not 0 <= opcode < 256:
        raise FrameError(f"opcode {opcode} out of u8 range")
    length = _HEAD.size + len(payload)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {length} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    return (
        length.to_bytes(4, "big")
        + _HEAD.pack(request_id, opcode)
        + payload
    )


def decode_frame(buffer: bytes) -> tuple[tuple[int, int, bytes], bytes]:
    """Split one frame off ``buffer``: ``((id, opcode, payload), rest)``.

    The sans-IO core of :func:`read_frame`, also used by tests; raises
    :class:`FrameError` as soon as the length prefix breaks the framing
    contract (below the header size, above the cap), and
    :class:`ConnectionClosedError` when the buffer holds only a partial
    frame (the caller needs more bytes).
    """
    if len(buffer) < 4:
        raise ConnectionClosedError("short buffer: no length prefix")
    length = int.from_bytes(buffer[:4], "big")
    if length < _HEAD.size:
        raise FrameError(f"frame length {length} below header size")
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {length} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    if len(buffer) < 4 + length:
        raise ConnectionClosedError("short buffer: truncated frame")
    request_id, opcode = _HEAD.unpack_from(buffer, 4)
    payload = bytes(buffer[4 + _HEAD.size : 4 + length])
    return (request_id, opcode, payload), buffer[4 + length :]


def read_frame(sock: socket.socket, buffer: bytearray) -> tuple[int, int, bytes]:
    """Read exactly one frame off a blocking socket: ``(request id,
    opcode, payload)``; both ends of a connection read with this.

    ``buffer`` holds the connection's bytes not yet framed, and keeps
    whatever follows the frame.  The cap is checked as soon as the
    length prefix is in, before another read.  Raises
    :class:`ConnectionClosedError` on EOF (clean between frames or dirty
    inside one) and :class:`FrameError` on a length prefix violating the
    cap — both terminate the connection, which is the only safe response
    to a peer whose framing can no longer be trusted.  Socket errors
    (timeouts included) propagate as ``OSError``.
    """
    while True:
        try:
            frame, rest = decode_frame(buffer)
        except ConnectionClosedError:
            pass  # a partial frame: read more
        else:
            del buffer[: len(buffer) - len(rest)]
            return frame
        chunk = sock.recv(_RECV_BYTES)
        if not chunk:
            raise ConnectionClosedError("connection closed")
        buffer += chunk
