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

import asyncio
import struct

#: Frames larger than this are a protocol violation (or garbage reaching
#: the port); a naive full-database ship of the benchmark workloads is a
#: few MB, so 256 MiB leaves orders of magnitude of headroom.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: u64 request id + u8 opcode (what the length prefix counts besides the
#: payload itself).
_HEAD = struct.Struct("!QB")

# Client -> server opcodes.
OP_HELLO = 1  # JSON {"tenant": ..., "protocol": 2}
OP_QUERY = 2  # sealed translated-query request (answer_wire)
OP_NAIVE = 4  # sealed naive request (ship_all_wire)
OP_UPDATE = 5  # freshness-sealed JSON update command
# 6 is retired (a cache flush does not move the epoch, so a sealed one
# could be replayed); the front door answers it as an unknown opcode.
OP_STATS = 7  # freshness-sealed {"op": "stats"}; sealed JSON response

# Server -> client opcodes.
OP_OK = 16  # complete response payload for the request id
OP_ERROR = 19  # JSON {"error": <type name>, "message": ...}
OP_HELLO_OK = 20  # JSON session parameters (tenant, protocol, epoch)

#: What HELLO and HELLO_OK both carry; a peer on another version is
#: refused at the handshake.  2: a response's fragments cross as an
#: ancestor row table and a text column (:mod:`repro.netsim.message`).
PROTOCOL_VERSION = 2


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

    Pure-bytes twin of :func:`read_frame` for tests and sans-IO callers;
    raises :class:`FrameError` when a complete frame is present but
    malformed, and :class:`ConnectionClosedError` when the buffer holds
    only a partial frame (the caller needs more bytes).
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


async def read_frame(
    reader: asyncio.StreamReader,
) -> tuple[int, int, bytes]:
    """Read exactly one frame: ``(request id, opcode, payload)``.

    Raises :class:`ConnectionClosedError` on EOF (clean between frames
    or dirty inside one) and :class:`FrameError` on a length prefix
    violating the cap — both terminate the connection, which is the only
    safe response to a peer whose framing can no longer be trusted.
    """
    try:
        prefix = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise ConnectionClosedError("connection closed") from exc
    length = int.from_bytes(prefix, "big")
    if length < _HEAD.size or length > MAX_FRAME_BYTES:
        raise FrameError(f"bad frame length {length}")
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise ConnectionClosedError(
            "connection closed mid-frame"
        ) from exc
    request_id, opcode = _HEAD.unpack_from(body, 0)
    return request_id, opcode, body[_HEAD.size :]
