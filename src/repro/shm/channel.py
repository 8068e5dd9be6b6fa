"""Shared-memory channel: framed request/response that skips the wire.

``ShmChannel`` speaks the exact frame format of
:mod:`repro.channels.framing` and the payload codec of
:mod:`repro.channels.request` — but the frames travel through SPSC ring
buffers in a ``multiprocessing.shared_memory`` segment instead of a
socket.  The request/response protocol itself is
:mod:`repro.channels.exchange`; this module is the pipe under it (the
ring/doorbell connection, the handshake and the accept loop), so
everything layered on frames composes unchanged: tracing headers and
the chaos wrapper, ``channels.create("chaos+shm")``.

Connection anatomy (one per client/server pair, pooled client-side):

* a Unix domain socket used **only** for the handshake and liveness —
  the client creates the segment plus two doorbells and sends the
  segment name and doorbell fds over the socket (``SCM_RIGHTS``); after
  the server's one-byte ack, no payload byte ever touches it again, but
  both sides keep it in their poll set so a dead peer is an immediate
  EOF instead of a hung ring;
* one shm segment holding a c2s and an s2c ring (:mod:`repro.shm.ring`),
  unlinked by the client as soon as the server has attached, so a crash
  on either side leaks nothing named;
* two doorbells (:mod:`repro.shm.doorbell`) for the park half of the
  hybrid wait.

Waiting is busy/park hybrid: spin a bounded number of ready checks,
then publish a park flag in the segment, re-check the ring, and poll
the doorbell with a bounded timeout.  The publish-then-recheck order
makes a lost doorbell cost at most one poll timeout; in a tight
cross-process request/response loop neither side ever parks and a
round trip completes without a single syscall.  Spinning is reserved
for peers in *other* processes — they really do run in parallel — while
a same-process peer shares our GIL and is served by parking
immediately, which releases it like a socket read would.

Reads are zero-copy where physics allows: when the next frame happens
to be contiguous in the ring (the overwhelmingly common case — frames
wrap only every ``ring_size`` bytes), the payload is handed to the
decoder as a ``memoryview`` straight into shared memory and consumed
only after decoding.  ``bytes`` and columnar batch payloads are thus
materialised exactly once, from ring to result object.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import re
import select
import socket
import struct
import tempfile
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Callable

from repro.channels.base import RequestHandler, ServerBinding
from repro.channels.exchange import FramedChannel, serve_connection
from repro.channels.framing import HEADER_SIZE, parse_header_from
from repro.errors import (
    AddressError,
    ChannelClosedError,
    ChannelError,
    ShmSetupError,
)
from repro.shm.doorbell import Doorbell
from repro.shm.ring import (
    DEFAULT_RING_SIZE,
    VERSION,
    client_rings,
    init_segment,
    is_closed,
    mark_closed,
    read_segment_header,
    segment_size,
    server_rings,
)

#: Ready-check spin iterations before a cross-process waiter parks on
#: its doorbell (same-process peers always park immediately).
DEFAULT_SPIN = 1000

#: Bounded park so a lost doorbell (benign flag race) self-heals (ms).
PARK_TIMEOUT_MS = 100

#: Idle connections kept per remote authority (they pin a segment each,
#: so the default is tighter than the TCP pool's).
DEFAULT_MAX_IDLE_PER_AUTHORITY = 4

# magic, version, name length, ring size, creator's resource-tracker id
_HELLO = struct.Struct("<4sHHIQ")
_HELLO_MAGIC = b"PSHL"

_SAFE_AUTHORITY = re.compile(r"[^A-Za-z0-9_.:-]")
_auto_authorities = itertools.count(1)


def shm_socket_dir() -> str:
    """Directory holding the handshake sockets (``PARC_SHM_DIR`` overrides).

    A listener's socket file lives here for as long as it is bound.
    """
    base = os.environ.get("PARC_SHM_DIR") or os.path.join(
        tempfile.gettempdir(), f"parc-shm-{os.getuid()}"
    )
    os.makedirs(base, mode=0o700, exist_ok=True)
    return base


def socket_path_for(authority: str) -> str:
    """Deterministic handshake-socket path for *authority*.

    Both sides derive the path independently — the listener from the
    authority it binds, the connector from the authority in the object
    URI — so a connector needs no lookup to find its listener.  Long or
    exotic authorities are digested to stay inside ``sun_path`` limits.
    """
    token = _SAFE_AUTHORITY.sub("_", authority)
    if not token or len(token) > 64:
        token = hashlib.sha1(authority.encode("utf-8")).hexdigest()[:24]
    return os.path.join(shm_socket_dir(), f"{token}.sock")


def _same_process_peer(sock: socket.socket) -> bool:
    """True when the handshake socket's peer is this very process."""
    try:
        creds = sock.getsockopt(
            socket.SOL_SOCKET, socket.SO_PEERCRED, struct.calcsize("3i")
        )
        pid, _uid, _gid = struct.unpack("3i", creds)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        return False
    return pid == os.getpid()


def _tracker_id() -> int:
    """Identity of this process's resource-tracker daemon (0 if unknown).

    The tracker is identified by the inode of its command pipe rather
    than a pid: multiprocessing's worker children inherit the parent's
    tracker as a bare duplicated fd (their local ``_pid`` stays unset),
    and two processes share a daemon exactly when their fds point at
    the same live pipe.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is None:
        return 0
    try:
        return os.fstat(fd).st_ino
    except OSError:  # pragma: no cover - tracker pipe gone
        return 0


def _untrack(segment: shared_memory.SharedMemory, creator_tracker: int) -> None:
    """Undo the resource tracker's attach-side registration.

    This Python registers a segment with the resource tracker on
    *attach* as well as create; without unregistering, the attaching
    process would try to unlink the (already unlinked) segment at
    interpreter exit and spam KeyError warnings from the tracker.

    The twist: multiprocessing's worker children *share* the parent's
    tracker daemon, whose cache is a plain name set — the attach-side
    register deduplicates into the creator's entry, and the creator's
    post-handshake ``unlink`` is the single unregister that entry needs.
    So only unregister when the attacher's tracker daemon is a
    different process than the creator's (*creator_tracker*, carried in
    the hello); unregistering a shared entry here would make the
    creator's unlink the double-remove instead.
    """
    if creator_tracker and creator_tracker == _tracker_id():
        return
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


class _Segment(shared_memory.SharedMemory):
    """A segment that lets go of its ring views before it unmaps.

    ``SharedMemory.close`` — and so its finalizer, in whatever order the
    collector runs it — raises ``BufferError`` while any view of the
    mapping is alive, and a connection's rings hold two for life.
    """

    rings: tuple = ()

    def close(self) -> None:
        for ring in self.rings:
            ring.release()
        super().close()


class _ShmCounters:
    """Cached ``shm.*`` instruments (all ``None`` without a registry).

    Park ratio is derived at read time as
    ``shm.wait.parks / (shm.wait.parks + shm.wait.spin_hits)``.
    """

    __slots__ = (
        "rings",
        "wakeups",
        "parks",
        "spin_hits",
        "frames",
        "bytes",
        "occupancy",
        "connections",
    )

    def __init__(self, metrics=None) -> None:  # type: ignore[no-untyped-def]
        if metrics is None:
            for name in self.__slots__:
                setattr(self, name, None)
            return
        self.rings = metrics.counter(
            "shm.doorbell.rings", "doorbell wakeup syscalls issued"
        )
        self.wakeups = metrics.counter(
            "shm.doorbell.wakeups", "parked waits ended by a doorbell"
        )
        self.parks = metrics.counter(
            "shm.wait.parks", "waits that exhausted their spin budget"
        )
        self.spin_hits = metrics.counter(
            "shm.wait.spin_hits", "waits satisfied while spinning"
        )
        self.frames = metrics.counter(
            "shm.frames", "frames received off shm rings"
        )
        self.bytes = metrics.counter(
            "shm.bytes", "frame bytes moved through shm rings"
        )
        self.occupancy = metrics.histogram(
            "shm.ring.occupancy",
            buckets=(0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
            help_text="tx ring fill fraction sampled after each frame",
        )
        self.connections = metrics.gauge(
            "shm.connections", "live shm connections in this process"
        )


class _ShmConnection:
    """One established connection: a (tx, rx) ring pair plus doorbells.

    An exchange :class:`~repro.channels.exchange.Connection`.  Strictly
    one in-flight exchange at a time per side — the client pool checks a
    connection out exclusively and the server serves each connection
    from a single thread — so no locking is needed on the rings
    themselves (that is what makes them SPSC).
    """

    def __init__(
        self,
        sock: socket.socket,
        segment: _Segment,
        tx,
        rx,
        bell_peer: Doorbell,
        bell_self: Doorbell,
        *,
        spin: int,
        counters: _ShmCounters,
    ) -> None:
        sock.setblocking(False)
        self._sock = sock
        self._sock_fd = sock.fileno()
        self._segment = segment
        segment.rings = (tx, rx)
        self._tx = tx
        self._rx = rx
        self._bell_peer = bell_peer
        self._bell_self = bell_self
        # Spinning only pays off against a peer that can actually run
        # concurrently.  A same-process peer (detected via the handshake
        # socket's credentials) shares our GIL — spinning would hold it
        # while the peer waits for it — and on a single-CPU host the
        # spin just burns the timeslice the peer needs (``sched_yield``
        # does not reliably hand it over under CFS), so both cases park
        # immediately, which behaves like a socket.
        if _same_process_peer(sock) or (os.cpu_count() or 1) < 2:
            self._spin = 0
        else:
            self._spin = spin
        self._counters = counters
        self._header_scratch = bytearray(HEADER_SIZE)
        #: Where a frame that wraps around the ring is staged.
        self._staged = bytearray()
        #: Ring bytes the last read_frame lent out zero-copy.
        self._lent = 0
        self._closed = False
        self._close_lock = threading.Lock()
        self._poller = select.poll()
        self._poller.register(bell_self.fileno(), select.POLLIN)
        self._poller.register(self._sock_fd, select.POLLIN)
        if counters.connections is not None:
            counters.connections.add(1)

    # -- liveness -----------------------------------------------------

    def alive(self) -> bool:
        return not self._closed and not is_closed(self._segment.buf)

    def _check_open(self) -> None:
        if self._closed or is_closed(self._segment.buf):
            raise ChannelClosedError("shm connection is closed")

    # -- hybrid wait --------------------------------------------------

    def _wait(self, side, ready: Callable[[], bool]) -> None:
        """Block until ``ready()``: busy-spin, then park on the doorbell.

        *side* is the ring half whose park flag we own.  The flag is
        published *before* the final readiness re-check, so the peer's
        "flag set → ring" and our "flag set → re-check → poll" can
        interleave any way at all and the worst case is one bounded
        poll timeout, never a lost wakeup.
        """
        counters = self._counters
        for _ in range(self._spin):
            if ready():
                if counters.spin_hits is not None:
                    counters.spin_hits.inc()
                return
        self._check_open()
        while True:
            # set_waiting raises ValueError (released view) or TypeError
            # (read-only view) when a concurrent close() tore the ring
            # down under us; both mean "closed", like the flag check.
            try:
                side.set_waiting(True)
                try:
                    if ready():
                        return
                    if counters.parks is not None:
                        counters.parks.inc()
                    self._park()
                finally:
                    side.set_waiting(False)
            except (ValueError, TypeError):
                raise ChannelClosedError("shm connection is closed") from None
            if ready():
                return
            self._check_open()

    def _park(self) -> None:
        for fd, _event in self._poller.poll(PARK_TIMEOUT_MS):
            if fd == self._sock_fd:
                try:
                    data = self._sock.recv(16)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:
                    raise ChannelClosedError(
                        "shm peer closed the connection"
                    ) from None
                if not data:
                    raise ChannelClosedError("shm peer closed the connection")
                # Bytes after the handshake are protocol noise; ignore.
            else:
                self._bell_self.drain()
                if self._counters.wakeups is not None:
                    self._counters.wakeups.inc()

    def _ring_peer(self) -> None:
        self._bell_peer.ring()
        if self._counters.rings is not None:
            self._counters.rings.inc()

    # -- sending ------------------------------------------------------

    def send(self, parts: list) -> None:
        """Copy one already-framed frame into the tx ring, part by part."""
        self._check_open()
        try:
            total = 0
            for part in parts:
                if len(part):
                    self._write_all(part)
                    total += len(part)
            self._flush()
            self._note_sent(total)
        except (ValueError, TypeError):
            # A concurrent close() released the segment views under us.
            raise ChannelClosedError("shm connection is closed") from None

    def _note_sent(self, count: int) -> None:
        counters = self._counters
        if counters.bytes is not None:
            counters.bytes.inc(count)
        if counters.frames is not None:
            counters.frames.inc()
        if counters.occupancy is not None:
            counters.occupancy.observe(self._tx.used() / self._tx.size)

    def _write_all(self, data) -> None:
        """Copy *data* into the tx ring, waiting for space as needed.

        Deliberately does NOT ring the peer's doorbell on the happy
        path: a frame is sent as several parts (header, meta, body), and
        waking a parked reader per part makes it find a partial frame,
        park again, and pay a context-switch round trip for every piece.
        :meth:`_flush` rings once per *frame* instead.  The one exception
        is a full ring — then the reader must run before we can, so it
        is woken before we park for space.
        """
        tx = self._tx
        view = data if isinstance(data, memoryview) else memoryview(data)
        while True:
            count = tx.write_some(view)
            if count == len(view):
                return
            if count:
                view = view[count:]
            else:
                if tx.reader_waiting():
                    self._ring_peer()
                self._wait(tx, lambda: tx.space() > 0)

    def _flush(self) -> None:
        """Wake the reader once, after a complete frame is in the ring."""
        if self._tx.reader_waiting():
            self._ring_peer()

    # -- receiving ----------------------------------------------------

    def read_frame(self) -> tuple[int, memoryview]:
        """Read one frame; returns ``(flags, payload_view)``.

        When the payload is contiguous in the ring, the view is a window
        straight into shared memory and the ring bytes under it are
        consumed by :meth:`release_frame`.  Otherwise the payload is
        staged through the connection's own buffer (grown, never shrunk
        — it stabilises at the largest wrapped frame) and the ring is
        already consumed.
        """
        try:
            self._read_exact(self._header_scratch)
            flags, length = parse_header_from(self._header_scratch, 0)
            rx = self._rx
            counters = self._counters
            if counters.frames is not None:
                counters.frames.inc()
                counters.bytes.inc(HEADER_SIZE + length)
            if rx.can_view(length):
                if rx.used() < length:
                    self._wait(rx, lambda: rx.used() >= length)
                view = rx.view(length)
                self._lent = length
                return flags, view
            staged = self._staged
            if len(staged) < length:
                staged.extend(bytes(length - len(staged)))
            view = memoryview(staged)[:length]
            try:
                self._read_exact(view)
            except BaseException:
                view.release()
                raise
            return flags, view
        except (ValueError, TypeError):
            raise ChannelClosedError("shm connection is closed") from None

    def _read_exact(self, out) -> None:
        rx = self._rx
        view = out if isinstance(out, memoryview) else memoryview(out)
        offset = 0
        length = len(view)
        while offset < length:
            count = rx.read_into(view[offset:])
            if count:
                offset += count
                if rx.writer_waiting():
                    self._ring_peer()
            else:
                self._wait(rx, lambda: rx.used() > 0)

    def release_frame(self) -> None:
        """Retire the ring bytes :meth:`read_frame` served zero-copy."""
        lent, self._lent = self._lent, 0
        if not lent or self._closed:
            return
        try:
            self._rx.consume(lent)
            if self._rx.writer_waiting():
                self._ring_peer()
        except (ValueError, TypeError):  # concurrent close() released the views
            pass

    # -- teardown -----------------------------------------------------

    def close(self) -> None:
        with self._close_lock:
            if not self._closed:
                self._closed = True
                try:
                    mark_closed(self._segment.buf)
                except (ValueError, TypeError):  # pragma: no cover - torn segment
                    pass
                # Wake a parked peer so it observes the closed flag promptly.
                self._bell_peer.ring()
                self._bell_peer.close()
                self._bell_self.close()
                try:
                    self._sock.close()
                except OSError:  # pragma: no cover - teardown must finish
                    pass
                if self._counters.connections is not None:
                    self._counters.connections.add(-1)
            try:
                self._segment.close()
            except BufferError:
                # Another thread is mid-exchange on a ring view.  It calls
                # close() again once it has handed the frame back, and
                # that call unmaps.
                pass


def _connect(
    authority: str, *, ring_size: int, spin: int, counters: _ShmCounters
) -> _ShmConnection:
    """Dial *authority*'s handshake socket and establish a ring pair.

    The connector creates everything (segment + both doorbells) so the
    listener only ever attaches; the segment is unlinked the moment the
    ack arrives, leaving nothing named behind even on a later crash.
    All failures before the ack raise :class:`ShmSetupError`, so a
    caller knows no request was sent yet.
    """
    path = socket_path_for(authority)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    segment = None
    bell_self = bell_peer = None
    try:
        sock.settimeout(10.0)
        sock.connect(path)
        segment = _Segment(create=True, size=segment_size(ring_size))
        init_segment(segment.buf, ring_size)
        bell_self = Doorbell.create()  # we park here; the server rings it
        bell_peer = Doorbell.create()  # the server parks; we ring it
        name_bytes = segment.name.encode("utf-8")
        hello = (
            _HELLO.pack(
                _HELLO_MAGIC,
                VERSION,
                len(name_bytes),
                ring_size,
                _tracker_id(),
            )
            + name_bytes
        )
        socket.send_fds(
            sock, [hello], [bell_self.fds()[0], bell_peer.fds()[1]]
        )
        if sock.recv(1) != b"\x01":
            raise OSError("handshake rejected")
        segment.unlink()
    except (OSError, ValueError) as exc:
        if bell_self is not None:
            bell_self.close()
        if bell_peer is not None:
            bell_peer.close()
        if segment is not None:
            try:
                segment.unlink()
            except OSError:
                pass
            segment.close()
        sock.close()
        raise ShmSetupError(
            f"cannot establish shm connection to {authority}: {exc}"
        ) from exc
    tx, rx = client_rings(segment.buf, ring_size)
    return _ShmConnection(
        sock,
        segment,
        tx,
        rx,
        bell_peer=bell_peer,
        bell_self=bell_self,
        spin=spin,
        counters=counters,
    )


class _ShmBinding(ServerBinding):
    """Handshake-socket accept loop + one serve thread per connection."""

    def __init__(
        self,
        authority: str,
        handler: RequestHandler,
        *,
        spin: int,
        counters: _ShmCounters,
    ) -> None:
        if authority in ("", "0", "auto"):
            authority = f"shm-{os.getpid()}-{next(_auto_authorities)}"
        self._authority = authority
        self._handler = handler
        self._spin = spin
        self._counters = counters
        self._closed = threading.Event()
        self._lock = threading.Lock()
        self._connections: set[_ShmConnection] = set()
        self._path = socket_path_for(authority)
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._bind_socket()
            self._server.listen(16)
        except OSError:
            self._server.close()
            raise
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"parc-shm-accept-{authority}",
            daemon=True,
        )
        self._accept_thread.start()

    def _bind_socket(self) -> None:
        try:
            self._server.bind(self._path)
        except OSError as exc:
            # A leftover socket from a dead process is reclaimable; a
            # live listener is a real address conflict.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self._path)
            except (ConnectionRefusedError, FileNotFoundError):
                os.unlink(self._path)
                self._server.bind(self._path)
                return
            except OSError:
                pass
            finally:
                probe.close()
            raise AddressError(
                f"shm authority {self._authority!r} is already bound"
            ) from exc

    @property
    def authority(self) -> str:
        return self._authority

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name=f"parc-shm-conn-{self._authority}",
                daemon=True,
            )
            thread.start()

    def _handshake(self, sock: socket.socket) -> _ShmConnection | None:
        sock.settimeout(10.0)
        msg, fds, _flags, _addr = socket.recv_fds(sock, 256, 2)
        segment = None
        try:
            if len(msg) < _HELLO.size or len(fds) != 2:
                raise OSError("short shm hello")
            magic, version, name_len, ring_size, creator_tracker = (
                _HELLO.unpack_from(msg, 0)
            )
            if magic != _HELLO_MAGIC or version != VERSION:
                raise OSError(f"bad shm hello {magic!r} v{version}")
            name = msg[_HELLO.size : _HELLO.size + name_len].decode("utf-8")
            segment = _Segment(name=name)
            _untrack(segment, creator_tracker)
            if read_segment_header(segment.buf) != ring_size:
                raise OSError("shm segment/hello ring-size mismatch")
            sock.sendall(b"\x01")
        except (OSError, ValueError):
            for fd in set(fds):
                try:
                    os.close(fd)
                except OSError:
                    pass
            if segment is not None:
                segment.close()
            sock.close()
            return None
        tx, rx = server_rings(segment.buf, ring_size)
        return _ShmConnection(
            sock,
            segment,
            tx,
            rx,
            bell_peer=Doorbell.ring_only(fds[0]),
            bell_self=Doorbell.wait_only(fds[1]),
            spin=self._spin,
            counters=self._counters,
        )

    def _serve_connection(self, sock: socket.socket) -> None:
        conn = self._handshake(sock)
        if conn is None:
            return
        with self._lock:
            if self._closed.is_set():
                conn.close()
                return
            self._connections.add(conn)
        try:
            serve_connection(conn, self._handler, self._closed)
        finally:
            with self._lock:
                self._connections.discard(conn)
            # This thread held the ring views, so this close() is the one
            # that can always finish unmapping.
            conn.close()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            # shutdown() before close(): on Linux, closing alone does not
            # wake the thread blocked in accept().
            try:
                self._server.shutdown(socket.SHUT_RDWR)
            finally:
                self._server.close()
        except OSError:
            pass
        try:
            os.unlink(self._path)
        except OSError:
            pass
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            conn.close()
        if self._accept_thread is not threading.current_thread():
            self._accept_thread.join()


class ShmChannel(FramedChannel):
    """Framed request/response over shared-memory rings (scheme ``shm``).

    Same frame format, payload codec and exchange engine as
    :class:`~repro.channels.tcp.TcpChannel` — plus ring-resident reply
    payloads: the decode views alias the shared segment itself, so a
    64 KiB ``bytes`` reply is copied exactly once, straight from the
    ring into the result object.  Idle connections are probed with
    ``alive()`` instead of aged out: the closed flag in the segment says
    for certain what a socket's age only suggests.
    """

    scheme = "shm"

    def __init__(
        self,
        formatter=None,  # type: ignore[no-untyped-def]
        *,
        ring_size: int = DEFAULT_RING_SIZE,
        spin: int = DEFAULT_SPIN,
        max_idle_per_authority: int = DEFAULT_MAX_IDLE_PER_AUTHORITY,
        metrics=None,  # type: ignore[no-untyped-def]
    ) -> None:
        if ring_size < 4096:
            raise ChannelError(f"shm ring_size {ring_size} is below 4096")
        self._spin = spin
        self._counters = _ShmCounters(metrics)
        super().__init__(
            formatter,
            functools.partial(
                _connect, ring_size=ring_size, spin=spin, counters=self._counters
            ),
            max_idle_per_authority=max_idle_per_authority,
        )

    def listen(self, authority: str, handler: RequestHandler) -> ServerBinding:
        return _ShmBinding(
            authority, handler, spin=self._spin, counters=self._counters
        )
