"""The framed request/response exchange, written once.

The paper's substrate (Fig. 2) is one request/response exchange over a
swappable pipe.  This module is that exchange for every transport that
speaks the frame format of :mod:`repro.channels.framing` and the payload
codec of :mod:`repro.channels.request`; ``tcp`` and ``shm`` are byte
pipes underneath it.

The engine owns everything that is protocol:

* building the request frame in a pooled buffer, header patched in place
  (:func:`build_request_frame`);
* the idle / checked-out :class:`ConnectionPool`, force-closing on
  ``close()`` and reporting a call cut down by that close as
  :class:`~repro.errors.ChannelClosedError`;
* decoding the reply's status;
* the one ``finally`` that releases the reply views, retires the frame
  and checks the connection back in — in that order;
* the server loop (:func:`serve_connection`): decode → handler → status
  → reply → release.

A transport supplies a :class:`Connection` per peer (client side through
the ``connect`` callable it hands :class:`FramedChannel`, server side
from its own accept loop) and nothing else.  ``aio`` keeps its event
loop, window and correlation ids, and shares the two pure helpers
:func:`build_request_frame` and :func:`run_handler`.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Mapping, Protocol

from repro.channels import framing
from repro.channels.base import Channel, RequestHandler
from repro.channels.buffers import BufferPool
from repro.channels.framing import (
    CORRELATION_SIZE,
    HEADER_SIZE,
    pack_header_into,
)
from repro.channels.request import (
    STATUS_ERROR,
    STATUS_OK,
    decode_request_view,
    decode_response_view,
    encode_request_meta,
)
from repro.errors import ChannelClosedError, ChannelError, WireFormatError
from repro.serialization import BinaryFormatter


class Connection(Protocol):
    """One established byte pipe between a client and a server.

    Strictly one exchange at a time per side: the pool checks a
    connection out exclusively and a server serves each connection from
    one thread, so implementations need no locking of their own.
    """

    def send(self, parts: list) -> None:
        """Write one frame given as already-framed buffers, in order.

        The frame header is at the front of ``parts[0]``; the pipe adds
        nothing.  One wake-up (or one syscall) per call, however many
        parts there are.
        """

    def read_frame(self) -> tuple[int, memoryview]:
        """Block for the next frame; returns ``(flags, payload_view)``.

        The view aliases the connection's own receive buffer or memory
        the pipe lends; it stays valid until :meth:`release_frame`.  The
        receive buffer lives as long as the connection and is grown,
        never shrunk: freeing a large frame's buffer after every call
        has the allocator hand the pages back and fault them in again on
        the next one.
        """

    def release_frame(self) -> None:
        """Take back what the last :meth:`read_frame` lent.

        Called once per frame read, after every view onto it has been
        released.
        """

    def alive(self) -> bool:
        """False once either side has closed the pipe."""

    def close(self) -> None:
        """Tear the pipe down, waking a thread blocked on it.

        Idempotent, and callable from any thread.  The thread that was
        mid-exchange calls it again after :meth:`release_frame`, which is
        where a pipe that lends its own memory finishes unmapping it.
        """


def build_request_frame(
    out: bytearray,
    flags: int,
    path: str,
    headers: Mapping[str, str],
    body,  # type: ignore[no-untyped-def]
    dumps_into: Callable[[bytearray, object], None] | None = None,
    reserve: int = 0,
) -> int:
    """Append one request frame to *out*; returns the body's byte size.

    Layout: ``[header][reserve bytes][path + headers][body]``.  *reserve*
    leaves room at the front of the payload for a prefix patched in
    later (aio's correlation id).  With *dumps_into* (a formatter's
    append-encoder) *body* is the message and is serialized in place.
    Without it *body* is bytes-like and is **not** copied: the header
    counts it and the caller sends it as the part after *out*.
    """
    out += bytes(HEADER_SIZE + reserve)
    encode_request_meta(out, path, headers)
    if dumps_into is not None:
        body_start = len(out)
        dumps_into(out, body)
        size = len(out) - body_start
        length = len(out) - HEADER_SIZE
    else:
        size = len(body)
        length = len(out) - HEADER_SIZE + size
    pack_header_into(out, 0, flags, length)
    return size


#: A body this small is copied behind the frame head rather than sent as
#: a part of its own: one buffer costs less than a second iovec or a
#: second ring write.
_COALESCE_MAX = 512


def _head_and_body(head: bytearray, body) -> list:  # type: ignore[no-untyped-def]
    """The parts to send for a frame whose *head* is followed by *body*."""
    if len(body) <= _COALESCE_MAX:
        head += body
        return [head]
    return [head, body]


#: Reply payload bytes that are not the handler's: correlation id and
#: status byte, whichever of them a transport adds.
_REPLY_OVERHEAD = CORRELATION_SIZE + 1


def run_handler(handler: RequestHandler, payload) -> tuple[int, bytes]:  # type: ignore[no-untyped-def]
    """Decode one request payload and run *handler*: ``(status, body)``.

    This is the wire boundary: whatever the handler (or the decode)
    raises becomes a ``STATUS_ERROR`` reply carrying the error text.  A
    response too large to frame is reported the same way — the
    connection and every other reply on it survive.

    A *payload* that is itself a ``memoryview`` is memory the caller
    takes back (a receive buffer, a ring): the body view the handler
    sees is then valid only until it returns.  It is released here, not
    merely dropped, because the frames of a handler that caught an
    exception outlive its return (traceback cycles) and would otherwise
    pin that memory until the collector runs.  A ``bytes`` payload (aio
    copies each frame out) is nobody's to take back.
    """
    lent = isinstance(payload, memoryview)
    body = None
    try:
        path, headers, body = decode_request_view(payload)
        response = handler(path, body, headers)
        if lent and isinstance(response, memoryview):
            response = bytes(response)  # may alias the body
        if len(response) > framing.MAX_FRAME - _REPLY_OVERHEAD:
            raise WireFormatError(
                f"response of {len(response)} bytes exceeds MAX_FRAME"
            )
        return STATUS_OK, response
    except Exception as exc:  # noqa: BLE001 - wire boundary
        return STATUS_ERROR, f"{type(exc).__name__}: {exc}".encode("utf-8")
    finally:
        if lent and body is not None:
            body.release()


def serve_connection(
    conn: Connection, handler: RequestHandler, closed: threading.Event
) -> None:
    """Serve *conn* until the peer hangs up or *closed* is set.

    Serving is strictly serial per connection, so one reply head is
    reused across requests, and the frame is handed back to the pipe
    after the reply has been sent.  The caller closes *conn* afterwards.
    """
    head = bytearray(HEADER_SIZE)
    while not closed.is_set():
        try:
            _flags, view = conn.read_frame()
        except (ChannelError, WireFormatError, OSError):
            return  # peer hung up or sent garbage
        try:
            status, response = run_handler(handler, view)
            del head[HEADER_SIZE:]
            head.append(status)
            pack_header_into(
                head, 0, 0, len(head) - HEADER_SIZE + len(response)
            )
            conn.send(_head_and_body(head, response))
        except (ChannelError, OSError):
            return
        finally:
            # Every view into the frame must be gone before the pipe
            # reuses the memory under it.  ``response`` is never one
            # (run_handler copies a reply that is a view) and is left
            # alive until the next reply replaces it: dropping a large
            # reply here only to allocate its successor a moment later
            # has glibc unmap and remap the block on every call, which
            # costs bulk_echo a third of its rate (EXPERIMENTS.md
            # §EXT-ENGINE).
            view.release()
            conn.release_frame()


class ConnectionPool:
    """Bounded idle-connection pool, one list per remote authority.

    ``checkin`` keeps at most *max_idle_per_authority* live connections
    per authority (extras are closed); ``checkout`` discards connections
    that died or sat idle longer than *max_idle_s* rather than handing
    back a probably-dead one, and dials a new one with *connect*.
    """

    def __init__(
        self,
        connect: Callable[[str], Connection],
        max_idle_per_authority: int,
        max_idle_s: float = math.inf,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._connect = connect
        self._lock = threading.Lock()
        self._idle: dict[str, list[tuple[Connection, float]]] = {}
        # Connections currently out on a call.  close() force-closes them
        # so an in-flight call fails promptly with ChannelClosedError
        # rather than blocking shutdown on a reply that may never come.
        self._checked_out: set[Connection] = set()
        self._closed = False
        self._max_idle_per_authority = max_idle_per_authority
        self._max_idle_s = max_idle_s
        self._clock = clock

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def checkout(self, authority: str) -> Connection:
        stale: list[Connection] = []
        reused: Connection | None = None
        with self._lock:
            if self._closed:
                raise ChannelClosedError("channel is closed")
            idle = self._idle.get(authority)
            cutoff = self._clock() - self._max_idle_s
            while idle:
                conn, parked_at = idle.pop()
                if parked_at >= cutoff and conn.alive():
                    reused = conn
                    break
                stale.append(conn)
            if reused is not None:
                self._checked_out.add(reused)
        for conn in stale:
            conn.close()
        if reused is not None:
            return reused
        conn = self._connect(authority)
        with self._lock:
            if not self._closed:
                self._checked_out.add(conn)
                return conn
        conn.close()
        raise ChannelClosedError("channel is closed")

    def checkin(self, authority: str, conn: Connection) -> None:
        with self._lock:
            self._checked_out.discard(conn)
            if not self._closed and conn.alive():
                idle = self._idle.setdefault(authority, [])
                if len(idle) < self._max_idle_per_authority:
                    idle.append((conn, self._clock()))
                    return
        conn.close()

    def idle_count(self, authority: str) -> int:
        with self._lock:
            return len(self._idle.get(authority, ()))

    def close(self) -> None:
        with self._lock:
            self._closed = True
            connections = [
                conn for conns in self._idle.values() for conn, _at in conns
            ]
            connections.extend(self._checked_out)
            self._idle.clear()
            self._checked_out.clear()
        for conn in connections:
            conn.close()


class FramedChannel(Channel):
    """Client half of the exchange over pooled :class:`Connection`\\ s.

    A transport subclasses this, hands over its *connect* callable and
    implements ``listen``; ``call`` and ``round_trip`` are here.
    """

    def __init__(
        self,
        formatter,  # type: ignore[no-untyped-def]
        connect: Callable[[str], Connection],
        *,
        max_idle_per_authority: int,
        max_idle_s: float = math.inf,
    ) -> None:
        super().__init__(
            formatter if formatter is not None else BinaryFormatter()
        )
        self._pool = ConnectionPool(connect, max_idle_per_authority, max_idle_s)
        self._buffers = BufferPool()

    def call(
        self,
        authority: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str] | None = None,
    ) -> bytes:
        # A large body goes to the pipe as its own part, uncopied.
        return self._exchange(authority, path, headers, body, None, bytes)

    def round_trip(
        self,
        authority: str,
        path: str,
        message: object,
        headers: Mapping[str, str] | None = None,
    ):
        """Exchange *message* without materialising request or reply bytes.

        The whole request frame — ``[header][path+headers][body]`` — is
        built in one pooled ``bytearray`` and the reply is deserialized
        straight from a ``memoryview`` of the frame the pipe read.  The
        only per-call heap traffic left is the decoded result itself.
        """
        return self._exchange(
            authority, path, headers, message, self.formatter.dumps_into,
            self.formatter.loads,
        )

    def _exchange(self, authority, path, headers, body, dumps_into, decode):  # type: ignore[no-untyped-def]
        frame = self._buffers.acquire()
        conn = view = reply = None
        try:
            size = build_request_frame(
                frame, 0, path, headers or {}, body, dumps_into
            )
            if dumps_into is not None:
                self.last_request_bytes = size
                parts = [frame]
            else:
                parts = _head_and_body(frame, body)
            conn = self._pool.checkout(authority)
            try:
                conn.send(parts)
                _flags, view = conn.read_frame()
            except BaseException as exc:
                # A half-done exchange leaves the stream unusable.
                conn.close()
                if (
                    isinstance(exc, (OSError, ChannelError))
                    and not isinstance(exc, ChannelClosedError)
                    and self._pool.closed
                ):
                    # The pool was closed under us (cluster shutdown):
                    # the pipe error is a symptom, report the real cause.
                    raise ChannelClosedError(
                        f"channel closed while calling {authority}/{path}"
                    ) from exc
                raise
            reply = decode_response_view(view)
            return decode(reply)
        finally:
            for lent in (reply, view):
                if lent is not None:
                    lent.release()
            if conn is not None:
                if view is not None:
                    conn.release_frame()
                # checkin closes a connection that is no longer alive —
                # including one close() could not finish under our view.
                self._pool.checkin(authority, conn)
            self._buffers.release(frame)

    def close(self) -> None:
        self._pool.close()
