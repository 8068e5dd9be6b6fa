"""Unit tests for the exchange engine over an in-memory connection.

No socket, ring or thread pool: a :class:`FakeConnection` answers each
request frame from a handler function, so the tests see exactly the
bytes the engine sends and the order it releases things in.
"""

from __future__ import annotations

import threading

import pytest

from repro.channels.exchange import (
    ConnectionPool,
    FramedChannel,
    serve_connection,
)
from repro.channels.framing import HEADER_SIZE, encode_frame, parse_header
from repro.channels.request import (
    STATUS_ERROR,
    STATUS_OK,
    decode_request_view,
    encode_request,
)
from repro.errors import ChannelClosedError, ChannelError
from repro.channels.services import ChannelServices
from repro.remoting.messages import CallMessage, ReturnMessage
from repro.remoting.objref import ObjRef
from repro.remoting.proxy import RemoteProxy
from repro.serialization import BinaryFormatter
from repro.telemetry.context import (
    TRACE_HEADER,
    TraceContext,
    current_context,
    to_header,
)


def echo(path, body, headers):
    return bytes(body)


class FakeConnection:
    """Client end of an in-memory pipe: ``send`` runs *handler* at once
    and ``read_frame`` hands back the reply it produced."""

    def __init__(self, handler=echo, events=None):
        self.handler = handler
        self.events = events if events is not None else []
        self.sent = []  # one bytes object per frame, parts joined
        self.closed = False
        self.lent = None
        self._reply = None

    def send(self, parts):
        frame = b"".join(bytes(part) for part in parts)
        self.sent.append(frame)
        self.events.append("send")
        _flags, length = parse_header(frame[:HEADER_SIZE])
        assert length == len(frame) - HEADER_SIZE
        path, headers, body = decode_request_view(frame[HEADER_SIZE:])
        try:
            reply = bytes((STATUS_OK,)) + self.handler(path, body, headers)
        except Exception as exc:  # noqa: BLE001 - mirrors run_handler
            reply = bytes((STATUS_ERROR,)) + str(exc).encode()
        self._reply = reply

    def read_frame(self):
        # Lends its own memory, like a ring.
        self._memory = bytearray(self._reply)
        self.lent = memoryview(self._memory)
        self.events.append("read_frame")
        return 0, self.lent

    def release_frame(self):
        self.lent.release()
        # BufferError here if the engine still held a view of the frame.
        self._memory.clear()
        self.events.append("release_frame")

    def alive(self):
        return not self.closed

    def close(self):
        self.closed = True


class FakeChannel(FramedChannel):
    scheme = "fake"

    def __init__(self, formatter=None, rig=None, **fake_opts):
        """*rig*, if given, doctors each new connection before use."""
        self.connections = []

        def connect(authority):
            conn = FakeConnection(**fake_opts)
            if rig is not None:
                rig(conn)
            self.connections.append(conn)
            return conn

        super().__init__(formatter, connect, max_idle_per_authority=2)

    def listen(self, authority, handler):
        raise NotImplementedError


class TestConnectionPool:
    def pool(self, **opts):
        opts.setdefault("max_idle_per_authority", 8)
        return ConnectionPool(lambda authority: FakeConnection(), **opts)

    def test_idle_bounded_per_authority(self):
        pool = self.pool(max_idle_per_authority=2)
        conns = [FakeConnection() for _ in range(4)]
        for conn in conns:
            pool.checkin("a:1", conn)
        assert pool.idle_count("a:1") == 2
        assert [conn.closed for conn in conns] == [False, False, True, True]

    def test_bound_is_per_authority(self):
        pool = self.pool(max_idle_per_authority=1)
        first, second = FakeConnection(), FakeConnection()
        pool.checkin("a:1", first)
        pool.checkin("b:2", second)
        assert pool.idle_count("a:1") == 1
        assert pool.idle_count("b:2") == 1
        assert not first.closed and not second.closed

    def test_stale_idle_connection_discarded_not_reused(self):
        now = [0.0]
        pool = self.pool(max_idle_s=10.0, clock=lambda: now[0])
        stale = FakeConnection()
        pool.checkin("a:1", stale)
        now[0] = 11.0
        fresh = pool.checkout("a:1")
        assert stale.closed  # not handed back
        assert fresh is not stale and not fresh.closed

    def test_young_idle_connection_reused(self):
        now = [0.0]
        pool = self.pool(max_idle_s=10.0, clock=lambda: now[0])
        parked = FakeConnection()
        pool.checkin("a:1", parked)
        now[0] = 9.0
        assert pool.checkout("a:1") is parked
        assert pool.idle_count("a:1") == 0

    def test_dead_connection_neither_parked_nor_reused(self):
        pool = self.pool()  # no age-out: only the alive() probe
        parked, dead = FakeConnection(), FakeConnection()
        pool.checkin("a:1", parked)
        parked.closed = True  # the peer hung up while it sat idle
        assert pool.checkout("a:1") is not parked
        dead.closed = True
        pool.checkin("a:1", dead)
        assert pool.idle_count("a:1") == 0

    def test_close_closes_idle_and_checked_out(self):
        pool = self.pool()
        parked = FakeConnection()
        pool.checkin("a:1", parked)
        out = pool.checkout("b:2")
        pool.close()
        assert parked.closed and out.closed
        with pytest.raises(ChannelClosedError):
            pool.checkout("a:1")


MESSAGE = CallMessage(uri="auto/io-1", method="step", args=(1.5, 7, "x"))
HEADERS = {"parc-trace": "00-abc-def-01"}


class TestRequestBytes:
    """The frame the engine builds is the reference encoders' output."""

    def test_round_trip_frame_matches_reference(self):
        channel = FakeChannel()
        body = BinaryFormatter().dumps(MESSAGE)
        channel.round_trip("a:1", "auto/io-1", MESSAGE, HEADERS)
        expected = encode_frame(encode_request("auto/io-1", HEADERS, body))
        assert channel.connections[0].sent == [expected]
        assert channel.last_request_bytes == len(body)

    def test_call_frame_matches_reference(self):
        channel = FakeChannel()
        assert channel.call("a:1", "p", b"raw body") == b"raw body"
        expected = encode_frame(encode_request("p", {}, b"raw body"))
        assert channel.connections[0].sent == [expected]


def reply_seven(path, body, headers):
    return BinaryFormatter().dumps(ReturnMessage(value=7))


class TestRequestHeaders:
    """A remote sync call's request frame carries only ``parc-trace``."""

    def call_and_decode(self):
        channel = FakeChannel(handler=reply_seven)
        services = ChannelServices()
        services.register_channel(channel)
        proxy = RemoteProxy(ObjRef(uris=("fake://a:1/auto/io-1",)), services)
        assert proxy.invoke("step", (1,), {}) == 7
        [frame] = channel.connections[0].sent
        path, headers, _body = decode_request_view(frame[HEADER_SIZE:])
        assert path == "auto/io-1"
        return headers

    def test_untraced_call_sends_no_headers(self):
        assert self.call_and_decode() == {}

    def test_traced_call_sends_only_the_trace_header(self):
        ctx = TraceContext(trace_id="ab" * 8, span_id="cd" * 8)
        token = current_context.set(ctx)
        try:
            headers = self.call_and_decode()
        finally:
            current_context.reset(token)
        assert headers == {TRACE_HEADER: to_header(ctx)}


class TestExchange:
    def test_releases_views_then_frame_then_checks_in(self):
        events = []
        channel = FakeChannel(events=events)
        assert channel.round_trip("a:1", "p", [1, 2]) == [1, 2]
        # release_frame itself fails if a view is still out by then.
        assert events == ["send", "read_frame", "release_frame"]
        assert channel._pool.idle_count("a:1") == 1
        channel.round_trip("a:1", "p", [3])
        assert len(channel.connections) == 1  # reused, not redialled

    def test_error_reply_keeps_the_connection(self):
        def boom(path, body, headers):
            raise ValueError("handler exploded")

        events = []
        channel = FakeChannel(handler=boom, events=events)
        with pytest.raises(ChannelError, match="handler exploded"):
            channel.call("a:1", "p", b"")
        assert events[-1] == "release_frame"
        assert channel._pool.idle_count("a:1") == 1

    def test_failing_encode_dials_nothing(self):
        class FailingFormatter(BinaryFormatter):
            def gather_into(self, out, message):
                raise TypeError("cannot serialize that")

        channel = FakeChannel(FailingFormatter())
        with pytest.raises(TypeError, match="cannot serialize"):
            channel.round_trip("a:1", "p", "hello")
        assert channel.connections == []

    def test_failing_send_drops_connection(self):
        def break_send(conn):
            def send(parts):
                raise OSError("pipe burst")

            conn.send = send

        channel = FakeChannel(rig=break_send)
        with pytest.raises(OSError, match="pipe burst"):
            channel.call("a:1", "p", b"")
        assert channel.connections[0].closed
        assert channel._pool.idle_count("a:1") == 0

    def test_close_during_parked_call_raises_channel_closed(self):
        parked = threading.Event()

        def park_in_read(conn):
            woken = threading.Event()

            def read_frame():
                parked.set()
                assert woken.wait(10)
                raise OSError("connection reset")

            close = conn.close
            conn.read_frame = read_frame
            conn.close = lambda: (close(), woken.set())

        channel = FakeChannel(rig=park_in_read)
        errors = []

        def caller():
            try:
                channel.call("a:1", "p", b"")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        thread = threading.Thread(target=caller)
        thread.start()
        assert parked.wait(10)
        channel.close()
        thread.join(10)
        assert not thread.is_alive()
        assert [type(exc) for exc in errors] == [ChannelClosedError]
        assert "closed while calling a:1/p" in str(errors[0])


class ServerEnd:
    """Server end of an in-memory pipe fed a list of request frames."""

    def __init__(self, frames):
        self.frames = list(frames)
        self.events = []
        self.replies = []

    def read_frame(self):
        if not self.frames:
            raise ChannelClosedError("peer hung up")
        frame = self.frames.pop(0)
        flags, _length = parse_header(frame[:HEADER_SIZE])
        self._memory = bytearray(frame[HEADER_SIZE:])
        self.lent = memoryview(self._memory)
        return flags, self.lent

    def send(self, parts):
        self.replies.append(b"".join(bytes(part) for part in parts))
        self.events.append("send")

    def release_frame(self):
        self.lent.release()
        # BufferError here if a view of the frame outlived the reply.
        self._memory.clear()
        self.events.append("release_frame")


class TestServeConnection:
    def request(self, path, body):
        return encode_frame(encode_request(path, {}, body))

    def test_replies_in_order_and_releases_after_each_send(self):
        def handler(path, body, headers):
            if path == "bad":
                raise ValueError("no")
            return b"<" + bytes(body) + b">"

        end = ServerEnd([self.request("ok", b"1"), self.request("bad", b"2")])
        serve_connection(end, handler, threading.Event())
        assert end.replies == [
            encode_frame(bytes((STATUS_OK,)) + b"<1>"),
            encode_frame(bytes((STATUS_ERROR,)) + b"ValueError: no"),
        ]
        assert end.events == ["send", "release_frame"] * 2

    def test_body_view_dies_with_the_call(self):
        """Handler frames can outlive the call (a caught exception's
        traceback cycle); the body they name must not pin the frame."""
        kept = []

        def handler(path, body, headers):
            kept.append(body)
            return body[:2]  # a reply aliasing the body is copied out

        end = ServerEnd([self.request("p", b"abc")])
        serve_connection(end, handler, threading.Event())
        assert end.replies == [encode_frame(bytes((STATUS_OK,)) + b"ab")]
        with pytest.raises(ValueError, match="released"):
            kept[0].tobytes()

    def test_stops_when_closed_is_set(self):
        closed = threading.Event()
        closed.set()
        end = ServerEnd([self.request("p", b"")])
        serve_connection(end, echo, closed)
        assert end.replies == [] and len(end.frames) == 1
