"""AioTcpChannel: multiplexed, pipelined remoting transport on asyncio.

The thread-per-connection :class:`~repro.channels.tcp.TcpChannel` allows
exactly one in-flight request per pooled socket; every concurrent caller
costs a socket on the client and an OS thread on the server.  This module
is the event-loop alternative — the direction java.nio takes in the
paper's §2 comparison — behind the *same* blocking
:class:`~repro.channels.base.Channel` contract:

* **Server**: one ``asyncio`` event loop accepts every connection; no
  thread per client.  Handlers (which block — they run the remoting
  dispatcher) execute on a bounded dispatch pool, so many requests from
  one or many connections are in flight at once and responses return in
  completion order, matched by correlation id.
* **Client**: one socket per remote authority, shared by all concurrent
  callers.  Each request is tagged with a correlation id
  (:data:`~repro.channels.framing.FLAG_CORRELATED`), so the socket is
  pipelined: many requests go out before the first response returns.  A
  bounded in-flight window applies backpressure (excess requests queue in
  a backlog), each request carries a deadline, and a dead connection is
  re-established on the next call (requests already on the wire fail
  fast; they are never silently retried).
* **Façade**: the event loop runs on a dedicated daemon thread
  (:class:`~repro.aio.loop.LoopThread`); ``call``/``listen`` block, so
  the channel registers under scheme ``"aio"`` in ``ChannelServices`` and
  existing proxies, factories, and ``RemotingHost`` work unchanged.

The per-call path deliberately creates no asyncio task and runs no
coroutine: frames are parsed in ``Protocol.data_received`` callbacks,
caller threads park on ``concurrent.futures.Future``s the parser
completes directly, and cross-thread wake-ups are *coalesced* — caller
threads append requests to an outbox and schedule at most one loop
drain, dispatch workers do the same with finished responses.  Under load
one loop wake-up moves many calls, which is where the multiplexed socket
out-runs thread-per-socket (see ``benchmarks/test_aio_channel.py``).
Coroutines appear only on slow paths (connection establishment).

Frames and payloads are wire-compatible with ``TcpChannel`` (shared codec
in :mod:`repro.channels.request`); an uncorrelated frame from a classic
client is served in arrival order, so the two interoperate.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import itertools
import queue
import socket
import threading
from typing import Callable, Mapping

from repro.channels.base import (
    Channel,
    RequestHandler,
    ServerBinding,
    reply_bytes,
)
from repro.channels.exchange import build_request_frame, run_handler
from repro.channels.framing import (
    CORRELATION_SIZE,
    FLAG_CORRELATED,
    HEADER_SIZE,
    append_frame,
    pack_correlation_into,
    parse_header_from,
)
from repro.channels.request import (
    STATUS_ERROR,
    STATUS_OK,
    decode_response_view,
)
from repro.channels.tcp import parse_host_port
from repro.errors import ChannelClosedError, ChannelError, WireFormatError
from repro.aio.loop import LoopThread
from repro.serialization import BinaryFormatter
from repro.telemetry import MetricsRegistry

#: Default bound on concurrent in-flight requests per client connection.
DEFAULT_WINDOW = 64

#: Default per-request deadline (submit → matching response), seconds.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Default TCP connect deadline, seconds.
DEFAULT_CONNECT_TIMEOUT = 10.0

#: Default server dispatch pool size (concurrent blocking handlers).
DEFAULT_DISPATCH_WORKERS = 16

#: Response status bytes, indexed by status code (avoids a per-response
#: ``bytes((status,))`` allocation in the drain loop).
_STATUS_BYTES = (bytes((STATUS_OK,)), bytes((STATUS_ERROR,)))


def _finish(future: concurrent.futures.Future, body: bytes) -> None:
    """Complete a caller future, tolerating a caller that gave up."""
    if not future.done():
        try:
            future.set_result(body)
        except concurrent.futures.InvalidStateError:
            pass


def _fail(future: concurrent.futures.Future, error: Exception) -> None:
    if not future.done():
        try:
            future.set_exception(error)
        except concurrent.futures.InvalidStateError:
            pass


class _FrameReceiver(asyncio.Protocol):
    """Incremental PC-frame parser; subclasses get whole frames.

    Parsing happens inside ``data_received`` — no stream-reader
    coroutine, no per-frame scheduling.  A malformed header or a
    correlation flag with a short payload drops the connection, the same
    "hang up on garbage" policy as the threaded TCP server.
    """

    def __init__(self) -> None:
        self.transport: asyncio.Transport | None = None
        self._buffer = bytearray()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        offset = 0
        try:
            while True:
                if len(buffer) - offset < HEADER_SIZE:
                    break
                # Header and correlation id are parsed in place; only the
                # body is copied out (it outlives this rolling buffer: it
                # is handed to caller futures / the dispatch pool).
                flags, length = parse_header_from(buffer, offset)
                end = offset + HEADER_SIZE + length
                if len(buffer) < end:
                    break
                start = offset + HEADER_SIZE
                if flags & FLAG_CORRELATED:
                    if length < CORRELATION_SIZE:
                        raise WireFormatError(
                            f"correlated frame payload of {length} bytes is "
                            f"shorter than the {CORRELATION_SIZE}-byte "
                            f"correlation id"
                        )
                    correlation_id: int | None = int.from_bytes(
                        buffer[start:start + CORRELATION_SIZE], "big"
                    )
                    body = bytes(buffer[start + CORRELATION_SIZE:end])
                else:
                    correlation_id = None
                    body = bytes(buffer[start:end])
                offset = end
                self.frame_received(correlation_id, body)
        except WireFormatError:
            if self.transport is not None:
                self.transport.close()
            return
        finally:
            if offset:
                del buffer[:offset]

    def frame_received(self, correlation_id: int | None, body: bytes) -> None:
        raise NotImplementedError


class _ClientMetrics:
    """The client-side telemetry bundle (shared across connections)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.in_flight = registry.gauge(
            "aio.client.in_flight", "requests on the wire awaiting a response"
        )
        self.queued = registry.gauge(
            "aio.client.queued", "requests waiting for a window slot"
        )
        self.reconnects = registry.counter(
            "aio.client.reconnects", "connections re-established after failure"
        )


class _ClientProtocol(_FrameReceiver):
    """Feeds received frames / connection loss into an _AioConnection."""

    def __init__(self, connection: "_AioConnection") -> None:
        super().__init__()
        self._connection = connection

    def frame_received(self, correlation_id: int | None, body: bytes) -> None:
        self._connection._on_frame(correlation_id, body)

    def connection_lost(self, exc: Exception | None) -> None:
        self._connection._on_lost(exc)


class _AioConnection:
    """One multiplexed client connection.

    All state is confined to the event loop: every method below other
    than the constructor must run on the loop thread.  Callers park on
    ``concurrent.futures.Future``s which the frame parser completes
    directly — no per-request task or timer exists on the loop.
    """

    def __init__(
        self,
        authority: str,
        window: int,
        metrics: _ClientMetrics,
    ) -> None:
        self.authority = authority
        self.broken: ChannelError | None = None
        self._transport: asyncio.Transport | None = None
        self._loop = asyncio.get_running_loop()
        self._window = window
        self._metrics = metrics
        self._in_flight = 0
        self._pending: dict[int, concurrent.futures.Future] = {}
        self._backlog: collections.deque[
            tuple[bytearray, concurrent.futures.Future]
        ] = collections.deque()
        self._ids = itertools.count(1)
        # Outgoing frames are coalesced per loop iteration: _send appends
        # here and the scheduled _flush writes them as one buffer — one
        # syscall carries every frame queued in the same drain cycle.
        self._write_buffer: list[bytes] = []
        self._flush_scheduled = False

    @classmethod
    async def open(
        cls,
        authority: str,
        window: int,
        metrics: _ClientMetrics,
    ) -> "_AioConnection":
        host, port = parse_host_port(authority)
        connection = cls(authority, window, metrics)
        loop = asyncio.get_running_loop()
        try:
            transport, _protocol = await loop.create_connection(
                lambda: _ClientProtocol(connection), host, port
            )
        except OSError as exc:
            raise ChannelError(f"cannot connect to {authority}: {exc}") from exc
        connection._transport = transport
        return connection

    # -- submission ------------------------------------------------------

    def submit(
        self, request: bytearray, future: concurrent.futures.Future
    ) -> None:
        """Send now if a window slot is free, else queue (backpressure).

        *request* is a complete frame built by the caller thread with
        placeholder correlation-id bytes that :meth:`_send` patches in
        place — no re-framing on the loop.
        """
        if future.done():
            return  # caller already timed out or the channel closed
        if self.broken is not None:
            _fail(future, self.broken)
            return
        if self._in_flight >= self._window:
            self._backlog.append((request, future))
            self._metrics.queued.add(1)
            return
        self._send(request, future)

    def _send(
        self, request: bytearray, future: concurrent.futures.Future
    ) -> None:
        correlation_id = next(self._ids)
        self._pending[correlation_id] = future
        future._parc_cid = correlation_id  # for abandon() after a timeout
        self._in_flight += 1
        self._metrics.in_flight.add(1)
        pack_correlation_into(request, HEADER_SIZE, correlation_id)
        self._write_buffer.append(request)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._write_buffer or self.broken is not None:
            self._write_buffer.clear()
            return
        if len(self._write_buffer) == 1:
            data = self._write_buffer[0]
        else:
            data = b"".join(self._write_buffer)
        self._write_buffer.clear()
        try:
            self._transport.write(data)
        except Exception as exc:  # noqa: BLE001 - transport boundary
            self._mark_broken(
                ChannelError(f"send to {self.authority} failed: {exc}")
            )

    def _pump(self) -> None:
        """Promote backlog entries into freed window slots."""
        while (
            self._backlog
            and self._in_flight < self._window
            and self.broken is None
        ):
            request, future = self._backlog.popleft()
            self._metrics.queued.add(-1)
            if future.done():
                continue  # abandoned while queued
            self._send(request, future)

    def abandon(self, future: concurrent.futures.Future) -> None:
        """Forget a request whose caller gave up (timeout path)."""
        correlation_id = getattr(future, "_parc_cid", None)
        if correlation_id is not None:
            if self._pending.pop(correlation_id, None) is not None:
                self._in_flight -= 1
                self._metrics.in_flight.add(-1)
                self._pump()
            return
        for entry in self._backlog:
            if entry[1] is future:
                self._backlog.remove(entry)
                self._metrics.queued.add(-1)
                return

    # -- receive ---------------------------------------------------------

    def _on_frame(self, correlation_id: int | None, body: bytes) -> None:
        future = self._pending.pop(correlation_id, None)
        if future is None:
            return  # response to an abandoned request
        self._in_flight -= 1
        self._metrics.in_flight.add(-1)
        _finish(future, body)
        if self._backlog:
            self._pump()

    def _on_lost(self, exc: Exception | None) -> None:
        detail = f": {exc}" if exc else ""
        self._mark_broken(
            ChannelError(f"connection to {self.authority} lost{detail}")
        )

    # -- teardown --------------------------------------------------------

    def _mark_broken(self, error: ChannelError) -> None:
        if self.broken is None:
            self.broken = error
        self._write_buffer.clear()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            _fail(future, error)
        self._metrics.in_flight.add(-len(pending))
        self._in_flight = 0
        backlog, self._backlog = self._backlog, collections.deque()
        for _request, future in backlog:
            _fail(future, error)
        self._metrics.queued.add(-len(backlog))
        if self._transport is not None and not self._transport.is_closing():
            self._transport.close()

    def abort(self) -> None:
        """Tear the connection down, failing anything still pending."""
        self._mark_broken(
            ChannelClosedError(f"connection to {self.authority} closed")
        )


class _DispatchPool:
    """Minimal worker pool for blocking handlers.

    Far leaner than ``ThreadPoolExecutor`` on this hot path: no per-task
    Future, no done-callback machinery — workers pull ``(payload,
    on_done)`` items off a ``SimpleQueue`` and invoke the completion
    callback on the worker thread.
    """

    def __init__(
        self, workers: int, dispatch: Callable[[bytes], tuple[int, bytes]]
    ) -> None:
        self._dispatch = dispatch
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._work, name="parc-aio-dispatch", daemon=True
            )
            for _ in range(max(1, workers))
        ]
        for thread in self._threads:
            thread.start()

    def submit(
        self, payload: bytes, on_done: Callable[[int, bytes], None]
    ) -> bool:
        """Queue one dispatch; False once the pool is shut down."""
        if self._closed:
            return False
        self._queue.put((payload, on_done))
        return True

    def _work(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            payload, on_done = item
            status, response = self._dispatch(payload)
            try:
                on_done(status, response)
            except Exception:  # noqa: BLE001 - completion must not kill worker
                pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(None)


class _ServerProtocol(_FrameReceiver):
    """One accepted connection: frames in, correlated responses out.

    Correlated requests go straight to the dispatch pool and respond in
    completion order.  Uncorrelated frames (a classic ordered TcpChannel
    client) are dispatched one at a time so their responses keep request
    order.
    """

    def __init__(self, binding: "_AioBinding") -> None:
        super().__init__()
        self._binding = binding
        self._ordered: collections.deque[bytes] = collections.deque()
        self._ordered_busy = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self._binding._transports.add(self.transport)

    def connection_lost(self, exc: Exception | None) -> None:
        self._binding._transports.discard(self.transport)

    def frame_received(self, correlation_id: int | None, body: bytes) -> None:
        binding = self._binding
        binding._in_flight.add(1)
        if correlation_id is None:
            self._ordered.append(body)
            if not self._ordered_busy:
                self._ordered_busy = True
                self._next_ordered()
            return
        accepted = binding._pool.submit(
            body,
            lambda status, response, cid=correlation_id:
                binding._respond_later(self.transport, cid, status, response),
        )
        if not accepted:  # pool shut down: binding is closing
            binding._in_flight.add(-1)
            self.transport.close()

    def _next_ordered(self) -> None:
        accepted = self._binding._pool.submit(
            self._ordered.popleft(), self._ordered_done
        )
        if not accepted:
            self._binding._in_flight.add(-1)
            self.transport.close()

    def _ordered_done(self, status: int, response: bytes) -> None:
        # Runs on a dispatch worker; hop to the loop to write in order.
        try:
            self._binding._loop.call_soon_threadsafe(
                self._ordered_complete, status, response
            )
        except RuntimeError:
            pass  # loop already closed

    def _ordered_complete(self, status: int, response: bytes) -> None:
        binding = self._binding
        binding._in_flight.add(-1)
        binding._write_response(self.transport, None, status, response)
        if self._ordered:
            self._next_ordered()
        else:
            self._ordered_busy = False


class _AioBinding(ServerBinding):
    """A listening asyncio server plus its blocking-dispatch pool.

    The accept loop and all frame I/O run on the channel's event loop;
    each decoded request is handed straight to the dispatch pool.
    Finished responses are queued and written by a *coalesced* loop
    callback — under load one loop wake-up flushes many responses.
    """

    def __init__(
        self,
        channel: "AioTcpChannel",
        host: str,
        port: int,
        handler: RequestHandler,
    ) -> None:
        self._handler = handler
        self._loop_thread = channel._ensure_loop()
        self._loop = self._loop_thread.loop
        self._in_flight = channel.metrics.gauge(
            "aio.server.in_flight", "requests accepted, response not yet sent"
        )
        self._pool = _DispatchPool(channel.dispatch_workers, self._dispatch)
        self._responses: collections.deque = collections.deque()
        self._responses_scheduled = False
        self._closed = False
        self._transports: set[asyncio.Transport] = set()

        async def start() -> asyncio.AbstractServer:
            return await self._loop.create_server(
                lambda: _ServerProtocol(self), host, port
            )

        self._server = self._loop_thread.run(start())
        name = self._server.sockets[0].getsockname()
        self._authority = f"{name[0]}:{name[1]}"

    @property
    def authority(self) -> str:
        return self._authority

    def _dispatch(self, payload: bytes) -> tuple[int, bytes]:
        """Decode + run the blocking handler (executes on the pool).

        The payload is an immutable per-frame bytes object, so the body
        view stays valid for the handler's lifetime.  A reply given as a
        list of buffers is joined here, before another thread sends it.
        """
        status, response = run_handler(self._handler, payload)
        return status, reply_bytes(response)

    def _respond_later(
        self,
        transport: asyncio.Transport,
        correlation_id: int,
        status: int,
        response: bytes,
    ) -> None:
        """Dispatch-pool completion (worker thread): queue the response.

        Scheduling is coalesced: the first completion after a drain wakes
        the loop, completions racing in behind it ride the same wake-up.
        """
        self._responses.append((transport, correlation_id, status, response))
        if not self._responses_scheduled:
            self._responses_scheduled = True
            try:
                self._loop.call_soon_threadsafe(self._drain_responses)
            except RuntimeError:
                pass  # loop already closed

    def _drain_responses(self) -> None:
        self._responses_scheduled = False
        buffers: dict[asyncio.Transport, bytearray] = {}
        drained = 0
        while True:
            try:
                transport, correlation_id, status, response = (
                    self._responses.popleft()
                )
            except IndexError:
                break
            drained += 1
            if transport.is_closing():
                continue
            # Frames are appended straight into one buffer per connection
            # — no per-response bytes objects, no final join.
            frames = buffers.get(transport)
            if frames is None:
                frames = buffers[transport] = bytearray()
            append_frame(
                frames,
                (_STATUS_BYTES[status], response),
                correlation_id=correlation_id,
            )
        if drained:
            self._in_flight.add(-drained)
        # One write per connection flushes every response drained above.
        for transport, frames in buffers.items():
            try:
                transport.write(frames)
            except Exception:  # noqa: BLE001 - client went away mid-response
                pass

    def _write_response(
        self,
        transport: asyncio.Transport,
        correlation_id: int | None,
        status: int,
        response: bytes,
    ) -> None:
        if transport.is_closing():
            return
        frame = bytearray()
        append_frame(
            frame,
            (_STATUS_BYTES[status], response),
            correlation_id=correlation_id,
        )
        try:
            transport.write(frame)
        except Exception:  # noqa: BLE001 - client went away mid-response
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True

        async def shut_down() -> None:
            self._server.close()
            # asyncio keeps established connections alive after a server
            # closes; drop them so clients observe the shutdown (EOF) and
            # reconnect instead of pipelining into a dead dispatcher.
            for transport in list(self._transports):
                try:
                    transport.close()
                except Exception:  # noqa: BLE001 - best-effort teardown
                    pass
            self._transports.clear()
            await self._server.wait_closed()

        try:
            self._loop_thread.run(shut_down(), timeout=5.0)
        except (ChannelClosedError, ChannelError):
            pass  # loop already gone: sockets die with the daemon thread
        self._pool.close()


class AioTcpChannel(Channel):
    """Event-loop transport, scheme ``aio`` — one socket, many in-flight calls.

    Parameters
    ----------
    window:
        Max concurrent in-flight requests per client connection; further
        requests queue in a backlog (backpressure) and the wait counts
        toward their deadline.
    request_timeout:
        Per-request deadline in seconds, covering backlog wait + send +
        response (and connection establishment when one must be opened).
    connect_timeout:
        TCP connect deadline in seconds.
    dispatch_workers:
        Server-side dispatch-pool size (concurrent blocking handlers).
    metrics:
        A :class:`~repro.telemetry.MetricsRegistry` receiving the
        in-flight / queue-depth gauges and the reconnect counter; a
        private registry is created when omitted (exposed as ``.metrics``).
    """

    scheme = "aio"

    def __init__(
        self,
        formatter=None,  # type: ignore[no-untyped-def]
        *,
        window: int = DEFAULT_WINDOW,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        dispatch_workers: int = DEFAULT_DISPATCH_WORKERS,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            formatter if formatter is not None else BinaryFormatter()
        )
        if window < 1:
            raise ChannelError("window must be at least 1")
        self.window = window
        self.request_timeout = request_timeout
        self.connect_timeout = connect_timeout
        self.dispatch_workers = dispatch_workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._client_metrics = _ClientMetrics(self.metrics)
        self._lock = threading.Lock()
        self._loop_thread: LoopThread | None = None
        self._closed = False
        # Submission outbox: caller threads append, one coalesced loop
        # callback drains.  Under load many calls share one loop wake-up.
        self._outbox: collections.deque = collections.deque()
        self._outbox_scheduled = False
        # Loop-confined state (touched only from the loop thread):
        self._connections: dict[str, _AioConnection] = {}
        self._conn_locks: dict[str, asyncio.Lock] = {}

    # -- loop lifecycle --------------------------------------------------

    def _ensure_loop(self) -> LoopThread:
        with self._lock:
            if self._closed:
                raise ChannelClosedError("channel is closed")
            if self._loop_thread is None:
                self._loop_thread = LoopThread(name="parc-aio-loop")
            return self._loop_thread

    # -- server ----------------------------------------------------------

    def listen(self, authority: str, handler: RequestHandler) -> ServerBinding:
        host, port = parse_host_port(authority)
        return _AioBinding(self, host, port, handler)

    # -- client ----------------------------------------------------------

    def call(
        self,
        authority: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str] | None = None,
    ) -> bytes:
        request = self._frame(path, headers, body, None)
        request += body
        return bytes(decode_response_view(self._exchange(authority, request)))

    def round_trip(
        self,
        authority: str,
        path: str,
        message: object,
        headers: Mapping[str, str] | None = None,
    ):
        """Exchange *message*; the complete frame is built by the caller.

        The frame — ``[header][correlation-id placeholder][path+headers]
        [body]`` — is assembled in one ``bytearray`` on the caller thread
        (header patched in place once the length is known); the event
        loop only stamps the correlation id and hands the buffer to the
        transport.  The response body deserializes from a ``memoryview``.
        """
        request = self._frame(path, headers, message, self.formatter.dumps_into)
        payload = self._exchange(authority, request)
        return self.formatter.loads(decode_response_view(payload))

    def _frame(self, path, headers, body, dumps_into) -> bytearray:  # type: ignore[no-untyped-def]
        request = bytearray()
        size, _spills = build_request_frame(
            request,
            FLAG_CORRELATED,
            path,
            headers or {},
            body,
            dumps_into,
            reserve=CORRELATION_SIZE,
        )
        if dumps_into is not None:
            self.last_request_bytes = size
        return request

    def _exchange(self, authority: str, request: bytearray) -> bytes:
        """Submit one framed request and block for the raw response payload."""
        loop_thread = self._ensure_loop()
        future: concurrent.futures.Future = concurrent.futures.Future()
        self._outbox.append((authority, request, future))
        if not self._outbox_scheduled:
            # Benign race: a stale False schedules a second (empty) drain;
            # a stale True means a drain that has not yet run will pick
            # this entry up.
            self._outbox_scheduled = True
            try:
                loop_thread.loop.call_soon_threadsafe(self._drain_outbox)
            except RuntimeError:
                raise ChannelClosedError("channel is closed") from None
        try:
            payload = future.result(self.request_timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            try:
                loop_thread.loop.call_soon_threadsafe(
                    self._abandon, authority, future
                )
            except RuntimeError:
                pass
            raise ChannelError(
                f"request to {authority} timed out after "
                f"{self.request_timeout}s"
            ) from None
        except concurrent.futures.CancelledError:
            raise ChannelClosedError(
                "channel closed while the request was in flight"
            ) from None
        return payload

    # The callbacks below run on the event loop.

    def _drain_outbox(self) -> None:
        self._outbox_scheduled = False
        while True:
            try:
                authority, request, future = self._outbox.popleft()
            except IndexError:
                return
            self._submit(authority, request, future)

    def _submit(
        self, authority: str, request: bytearray,
        future: concurrent.futures.Future,
    ) -> None:
        if self._closed:
            _fail(future, ChannelClosedError("channel is closed"))
            return
        connection = self._connections.get(authority)
        if connection is not None and connection.broken is None:
            connection.submit(request, future)
        else:
            asyncio.ensure_future(
                self._connect_and_submit(authority, request, future)
            )

    async def _connect_and_submit(
        self, authority: str, request: bytearray,
        future: concurrent.futures.Future,
    ) -> None:
        try:
            connection = await self._connection_for(authority)
        except (ChannelError, OSError) as exc:
            _fail(future, exc if isinstance(exc, ChannelError)
                  else ChannelError(str(exc)))
            return
        connection.submit(request, future)

    async def _connection_for(self, authority: str) -> _AioConnection:
        lock = self._conn_locks.setdefault(authority, asyncio.Lock())
        async with lock:
            connection = self._connections.get(authority)
            if connection is not None:
                if connection.broken is None:
                    return connection
                del self._connections[authority]
                connection.abort()
                self._client_metrics.reconnects.inc()
            try:
                connection = await asyncio.wait_for(
                    _AioConnection.open(
                        authority, self.window, self._client_metrics
                    ),
                    timeout=self.connect_timeout,
                )
            except asyncio.TimeoutError:
                raise ChannelError(
                    f"connect to {authority} timed out after "
                    f"{self.connect_timeout}s"
                ) from None
            self._connections[authority] = connection
            return connection

    def _abandon(
        self, authority: str, future: concurrent.futures.Future
    ) -> None:
        connection = self._connections.get(authority)
        if connection is not None:
            connection.abandon(future)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            loop_thread = self._loop_thread
        if loop_thread is None:
            return

        async def shut_down() -> None:
            for connection in list(self._connections.values()):
                connection.abort()
            self._connections.clear()

        try:
            loop_thread.run(shut_down(), timeout=5.0)
        except (ChannelClosedError, ChannelError):
            pass
        loop_thread.close()
