"""The framed request/response exchange, written once.

The paper's substrate (Fig. 2) is one request/response exchange over a
swappable pipe.  This module is that exchange for every transport that
speaks the frame format of :mod:`repro.channels.framing` and the payload
codec of :mod:`repro.channels.request`; ``tcp`` and ``shm`` are byte
pipes underneath it.

The engine owns everything that is protocol:

* building the request frame, header patched in place
  (:func:`build_request_frame`), a large argument sent from its own
  memory (the formatter's ``gather_into``);
* the idle / checked-out :class:`ConnectionPool`, force-closing on
  ``close()`` and reporting a call cut down by that close as
  :class:`~repro.errors.ChannelClosedError`;
* decoding the reply's status;
* the one ``finally`` that releases the request and reply views and
  checks the connection back in — in that order;
* the server loop (:func:`serve_connection`): decode → handler → status
  → reply → release; a reply given as a list of buffers goes out as
  one gather write.

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
from repro.channels.base import Channel, RequestHandler, release_views
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
from repro.serialization.codec import INLINE_MAX, gather_parts


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
    dumps_into: Callable[[bytearray, object], list | None] | None = None,
    reserve: int = 0,
) -> tuple[int, list | None]:
    """Append one request frame to *out*: ``(body size, spills)``.

    Layout: ``[header][reserve bytes][path + headers][body]``.  *reserve*
    leaves room at the front of the payload for a prefix patched in
    later (aio's correlation id).  With *dumps_into* (a formatter's
    ``dumps_into`` or ``gather_into``, whose spills count too) *body* is
    the message and is serialized in place.  Without it *body* is
    bytes-like and is **not** copied: the header counts it and the
    caller sends it as the part after *out*.
    """
    out += bytes(HEADER_SIZE + reserve)
    encode_request_meta(out, path, headers)
    body_start = len(out)
    spills = None
    if dumps_into is None:
        size = len(body)
    else:
        spills = dumps_into(out, body)
        size = len(out) - body_start
        if spills:
            size += sum(len(view) for _offset, view in spills)
    pack_header_into(out, 0, flags, body_start - HEADER_SIZE + size)
    return size, spills


def _head_and_body(head: bytearray, body) -> list:  # type: ignore[no-untyped-def]
    """The parts to send for a frame whose *head* is followed by *body*
    (bytes-like, or a list of buffers).  A body of at most
    :data:`INLINE_MAX` bytes is copied behind the head: one buffer costs
    less than a second iovec or a second ring write."""
    if type(body) is list:
        return [head, *body]
    if len(body) <= INLINE_MAX:
        head += body
        return [head]
    return [head, body]


#: Reply payload bytes that are not the handler's: correlation id and
#: status byte, whichever of them a transport adds.
_REPLY_OVERHEAD = CORRELATION_SIZE + 1


def run_handler(handler: RequestHandler, payload) -> tuple[int, bytes | list]:  # type: ignore[no-untyped-def]
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
    copies each frame out) is nobody's to take back.  A list response
    is returned as it is, for the caller to send and release.
    """
    lent = isinstance(payload, memoryview)
    body = response = None
    try:
        path, headers, body = decode_request_view(payload)
        response = handler(path, body, headers)
        if lent and isinstance(response, memoryview):
            response = bytes(response)  # may alias the body
        if type(response) is list:
            size = sum(map(len, response))
        else:
            size = len(response)
        if size > framing.MAX_FRAME - _REPLY_OVERHEAD:
            raise WireFormatError(
                f"response of {size} bytes exceeds MAX_FRAME"
            )
        return STATUS_OK, response
    except Exception as exc:  # noqa: BLE001 - wire boundary
        if type(response) is list:
            release_views(response)
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
        response = None
        try:
            status, response = run_handler(handler, view)
            del head[HEADER_SIZE:]
            head.append(status)
            parts = _head_and_body(head, response)
            pack_header_into(head, 0, 0, sum(map(len, parts)) - HEADER_SIZE)
            conn.send(parts)
        except (ChannelError, OSError):
            return
        finally:
            # A list reply lets go of the grain's objects it was sent
            # from, so the grain may resize them.  Every view into the
            # frame must be gone before the pipe reuses the memory
            # under it.  A bytes reply is left alive until the next
            # replaces it: dropping a large one only to allocate its
            # successor has glibc unmap and remap the block every call
            # (EXPERIMENTS.md §EXT-ENGINE; a list reply allocates no
            # such block, §EXT-GATHER).
            if type(response) is list:
                release_views(response)
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

        The request frame — ``[header][path+headers][body]`` — is built
        through ``formatter.gather_into`` and sent as ``[head, payload,
        tail...]``, a large payload from the caller's own memory (released
        before the call returns); the reply is deserialized straight from
        a ``memoryview`` of the frame the pipe read.
        """
        return self._exchange(
            authority, path, headers, message, self.formatter.gather_into,
            self.formatter.loads,
        )

    def _exchange(self, authority, path, headers, body, gather_into, decode):  # type: ignore[no-untyped-def]
        frame = bytearray()
        conn = view = reply = spills = None
        try:
            size, spills = build_request_frame(
                frame, 0, path, headers or {}, body, gather_into
            )
            if gather_into is not None:
                self.last_request_bytes = size
                parts = gather_parts(frame, spills)
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
            if spills:
                release_views(parts)
            for lent in (reply, view):
                if lent is not None:
                    lent.release()
            if conn is not None:
                if view is not None:
                    conn.release_frame()
                # checkin closes a connection that is no longer alive —
                # including one close() could not finish under our view.
                self._pool.checkin(authority, conn)

    def close(self) -> None:
        self._pool.close()
