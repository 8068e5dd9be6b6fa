"""Length-prefixed frame codec used by the tcp, aio and shm channels.

Frame layout::

    magic   2 bytes   0x50 0x43  ("PC")
    flags   1 byte    bit 0: payload starts with a correlation id
    length  4 bytes   big-endian payload length
    payload N bytes

The magic bytes catch cross-protocol accidents (e.g. an HTTP client dialing
a TCP-channel port) with a clear error instead of a hung read.

When bit 0 of ``flags`` (:data:`FLAG_CORRELATED`) is set, the first 8
payload bytes are a big-endian correlation id: the server echoes the id on
the matching response frame, so a multiplexing client
(:class:`repro.aio.AioTcpChannel`) can keep many requests in flight on one
socket and accept the responses out of order.  Frames without the flag are
the classic strictly-ordered request/response exchange of
:class:`repro.channels.tcp.TcpChannel`; the two interoperate on the wire.

Bit 1 is unassigned: no peer sets it, and a server ignores it on a
request.  The wire has no flow control of its own; overload is shed by
the serving IO's bounded mailbox (:class:`~repro.errors.OverloadError`).
"""

from __future__ import annotations

import socket
import struct

from repro.errors import ChannelClosedError, WireFormatError

MAGIC = b"PC"
_HEADER = struct.Struct(">2sBI")
_CORRELATION = struct.Struct(">Q")

#: Byte size of the fixed frame header (magic + flags + length).
HEADER_SIZE = _HEADER.size

#: Byte size of the optional correlation-id prefix inside the payload.
CORRELATION_SIZE = _CORRELATION.size

#: Flag bit: payload is prefixed with an 8-byte correlation id.
FLAG_CORRELATED = 0x01

#: Refuse absurd frames rather than allocating gigabytes on a bad length.
MAX_FRAME = 256 * 1024 * 1024


def encode_frame(
    payload: bytes,
    flags: int = 0,
    correlation_id: int | None = None,
) -> bytes:
    """Build a complete frame for *payload*.

    The reference encoder: the channels build frames in place
    (:func:`pack_header_into`, :func:`append_frame`,
    :func:`write_frame_parts`) and tests hold them to this one's bytes.

    Passing *correlation_id* sets :data:`FLAG_CORRELATED` and prepends the
    id to the payload.
    """
    if correlation_id is not None:
        flags |= FLAG_CORRELATED
        payload = _CORRELATION.pack(correlation_id) + payload
    if len(payload) > MAX_FRAME:
        raise WireFormatError(
            f"frame payload of {len(payload)} bytes exceeds {MAX_FRAME}"
        )
    return _HEADER.pack(MAGIC, flags, len(payload)) + payload


def parse_header(header: bytes) -> tuple[int, int]:
    """Validate a raw frame header; returns ``(flags, payload_length)``.

    Shared by the blocking socket reader below and the asyncio stream
    reader in :mod:`repro.aio` so both reject bad magic and absurd lengths
    identically.
    """
    magic, flags, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME:
        raise WireFormatError(f"frame length {length} exceeds {MAX_FRAME}")
    return flags, length


def parse_header_from(buf, offset: int = 0) -> tuple[int, int]:
    """:func:`parse_header` reading in place from a buffer at *offset*.

    Lets stream readers validate headers directly inside their receive
    buffer (``memoryview``/``bytearray``) without slicing a copy first.
    """
    magic, flags, length = _HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME:
        raise WireFormatError(f"frame length {length} exceeds {MAX_FRAME}")
    return flags, length


def pack_header_into(buf, offset: int, flags: int, length: int) -> None:
    """Write a frame header in place (the reserved-prefix encode trick).

    The encoder appends ``HEADER_SIZE`` placeholder bytes, builds the
    payload behind them, then patches the real header here — one buffer,
    no concatenation.
    """
    if length > MAX_FRAME:
        raise WireFormatError(
            f"frame payload of {length} bytes exceeds {MAX_FRAME}"
        )
    _HEADER.pack_into(buf, offset, MAGIC, flags, length)


def pack_correlation_into(buf, offset: int, correlation_id: int) -> None:
    """Patch a correlation id into a prebuilt frame at *offset*.

    The multiplexing client builds its frame before a correlation id is
    assigned (ids are allocated on the event loop); the placeholder bytes
    after the header are overwritten here at send time.
    """
    _CORRELATION.pack_into(buf, offset, correlation_id)


def append_frame(
    out: bytearray,
    parts,
    flags: int = 0,
    correlation_id: int | None = None,
) -> None:
    """Append one complete frame for *parts* to a shared output buffer.

    The buffer-building sibling of :func:`encode_frame`: batched writers
    (the aio response drain) accumulate many frames into one ``bytearray``
    and hand the kernel a single write, with no per-frame ``bytes``.
    """
    length = sum(len(part) for part in parts)
    if correlation_id is not None:
        flags |= FLAG_CORRELATED
        length += CORRELATION_SIZE
    if length > MAX_FRAME:
        raise WireFormatError(
            f"frame payload of {length} bytes exceeds {MAX_FRAME}"
        )
    out += _HEADER.pack(MAGIC, flags, length)
    if correlation_id is not None:
        out += _CORRELATION.pack(correlation_id)
    for part in parts:
        out += part


def recv_exact(sock: socket.socket, size: int) -> bytes:
    """Read exactly *size* bytes or raise on EOF."""
    chunks: list[bytes] = []
    remaining = size
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            raise ChannelClosedError(
                f"peer closed connection with {remaining} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_exact_into(sock: socket.socket, view: memoryview) -> None:
    """Fill *view* completely from the socket or raise on EOF.

    The zero-copy sibling of :func:`recv_exact`: bytes land directly in
    the caller's buffer via ``recv_into`` — no chunk list, no join.
    """
    offset = 0
    remaining = len(view)
    while remaining > 0:
        received = sock.recv_into(view[offset:], remaining)
        if received == 0:
            raise ChannelClosedError(
                f"peer closed connection with {remaining} bytes outstanding"
            )
        offset += received
        remaining -= received


def read_frame_into(
    sock: socket.socket, buf: bytearray
) -> tuple[int, memoryview]:
    """Read one frame into reusable *buf*; returns ``(flags, payload_view)``.

    *buf* is grown (never shrunk) to hold the payload, so a connection's
    receive buffer stabilises at its largest frame and later reads allocate
    nothing.  The returned ``memoryview`` aliases *buf*: the caller must
    release it (and any sub-views) before reusing or growing the buffer,
    or CPython will raise ``BufferError``.
    """
    flags, length = parse_header(recv_exact(sock, HEADER_SIZE))
    if len(buf) < length:
        buf.extend(bytes(length - len(buf)))
    view = memoryview(buf)[:length]
    try:
        recv_exact_into(sock, view)
    except BaseException:
        view.release()
        raise
    return flags, view


def sendmsg_all(sock: socket.socket, parts: list) -> None:
    """Gather-write *parts* (buffers) fully, scatter-gather style.

    Uses ``socket.sendmsg`` (writev) so a frame composed as
    ``[header, meta, body]`` goes out in one syscall without being joined
    into a fresh ``bytes``; partial sends resume mid-part.  Falls back to
    ``sendall`` of a join on platforms without ``sendmsg``.
    """
    views = [memoryview(part).cast("B") for part in parts if len(part)]
    if not views:
        return
    sendmsg = getattr(sock, "sendmsg", None)
    if sendmsg is None:  # pragma: no cover - all CI platforms have sendmsg
        sock.sendall(b"".join(views))
        return
    while views:
        sent = sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views[0])
            views.pop(0)
        if sent and views:
            views[0] = views[0][sent:]


def write_frame_parts(
    sock: socket.socket,
    parts: list,
    flags: int = 0,
    correlation_id: int | None = None,
) -> None:
    """Send one frame whose payload is the concatenation of *parts*.

    The header (and optional correlation id) is built once
    into a small scratch buffer and the payload parts are handed to the
    kernel as-is.
    """
    length = sum(len(part) for part in parts)
    head = bytearray()
    if correlation_id is not None:
        flags |= FLAG_CORRELATED
        length += CORRELATION_SIZE
    if length > MAX_FRAME:
        raise WireFormatError(
            f"frame payload of {length} bytes exceeds {MAX_FRAME}"
        )
    head += _HEADER.pack(MAGIC, flags, length)
    if correlation_id is not None:
        head += _CORRELATION.pack(correlation_id)
    sendmsg_all(sock, [head, *parts])
