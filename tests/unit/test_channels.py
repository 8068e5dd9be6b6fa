"""Unit tests for framing, URI parsing, channel registry, and channels."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.channels import (
    HttpChannel,
    LoopbackChannel,
    TcpChannel,
    parse_uri,
)
from repro.channels.framing import (
    CORRELATION_SIZE,
    FLAG_CORRELATED,
    HEADER_SIZE,
    MAGIC,
    encode_frame,
    parse_header,
    read_frame_into,
    write_frame_parts,
)
from repro.channels.http import build_request, build_response, read_http_message
from repro.channels.services import ChannelServices
from repro.channels.tcp import parse_host_port
from repro.errors import (
    AddressError,
    ChannelClosedError,
    ChannelError,
    WireFormatError,
)
from repro.serialization import BinaryFormatter, SoapFormatter
from repro.shm import ShmChannel


def read_frame(sock):
    """One frame off *sock* as ``(flags, payload bytes)``."""
    flags, view = read_frame_into(sock, bytearray())
    with view:
        return flags, bytes(view)


class TestFraming:
    def test_frame_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            write_frame_parts(left, [b"pay", b"load"], flags=3)
            flags, payload = read_frame(right)
            assert flags == 3
            assert payload == b"payload"
        finally:
            left.close()
            right.close()

    def test_empty_payload(self):
        left, right = socket.socketpair()
        try:
            write_frame_parts(left, [b""])
            _flags, payload = read_frame(right)
            assert payload == b""
        finally:
            left.close()
            right.close()

    def test_frame_has_magic_prefix(self):
        assert encode_frame(b"x").startswith(MAGIC)

    def test_parts_writer_matches_reference_encoder(self):
        """Gather-written frames are byte-identical to ``encode_frame``."""
        left, right = socket.socketpair()
        try:
            write_frame_parts(left, [b"he", b"llo"], flags=4, correlation_id=9)
            expected = encode_frame(b"hello", flags=4, correlation_id=9)
            assert right.recv(len(expected) + 1) == expected
        finally:
            left.close()
            right.close()

    def test_receive_buffer_is_reused_and_grown(self):
        left, right = socket.socketpair()
        try:
            buf = bytearray()
            for body in (b"x" * 10, b"y" * 4000, b"z" * 3):
                write_frame_parts(left, [body])
                _flags, view = read_frame_into(right, buf)
                with view:
                    assert bytes(view) == body
            assert len(buf) == 4000  # grown to the largest frame, not shrunk
        finally:
            left.close()
            right.close()

    def test_bad_magic_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"XX\x00\x00\x00\x00\x01a")
            with pytest.raises(WireFormatError):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_eof_mid_frame_reported(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame(b"hello")
            left.sendall(frame[:4])
            left.close()
            with pytest.raises(ChannelClosedError):
                read_frame(right)
        finally:
            right.close()

    def test_eof_mid_payload_reported(self):
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame(b"hello")[:-2])
            left.close()
            with pytest.raises(ChannelClosedError):
                read_frame(right)
        finally:
            right.close()

    def test_oversize_frame_rejected_at_encode(self):
        from repro.channels.framing import MAX_FRAME

        with pytest.raises(WireFormatError):
            encode_frame(b"x" * (MAX_FRAME + 1))

    def test_oversize_frame_rejected_at_write(self, monkeypatch):
        from repro.channels import framing

        monkeypatch.setattr(framing, "MAX_FRAME", 1024)
        left, right = socket.socketpair()
        try:
            with pytest.raises(WireFormatError):
                write_frame_parts(left, [b"x" * 1000, b"y" * 25])
        finally:
            left.close()
            right.close()

    def test_oversize_length_rejected_at_parse(self):
        from repro.channels.framing import MAX_FRAME

        header = MAGIC + bytes([0]) + (MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(WireFormatError):
            parse_header(header)

    def test_multi_frame_stream(self):
        """Back-to-back frames on one socket each parse independently."""
        left, right = socket.socketpair()
        try:
            frames = [b"", b"one", b"x" * 70_000, b"last"]
            left.sendall(b"".join(encode_frame(frame) for frame in frames))
            for expected in frames:
                _flags, payload = read_frame(right)
                assert payload == expected
        finally:
            left.close()
            right.close()

    def test_garbage_stream_raises_not_hangs(self):
        """A non-frame byte stream fails fast with a wire error."""
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00" * (HEADER_SIZE * 3))
            with pytest.raises(WireFormatError):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_truncated_header_raises_not_hangs(self):
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame(b"payload")[: HEADER_SIZE - 2])
            left.close()
            # ChannelClosedError is a ChannelError: callers need one
            # except clause, not a hung read.
            with pytest.raises(ChannelError):
                read_frame(right)
        finally:
            right.close()


class TestCorrelation:
    def test_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            write_frame_parts(left, [b"req"], correlation_id=0xDEADBEEF)
            flags, payload = read_frame(right)
            assert flags & FLAG_CORRELATED
            assert payload[:CORRELATION_SIZE] == (0xDEADBEEF).to_bytes(8, "big")
            assert payload[CORRELATION_SIZE:] == b"req"
        finally:
            left.close()
            right.close()

    def test_uncorrelated_frame_has_no_flag(self):
        flags, length = parse_header(encode_frame(b"plain")[:HEADER_SIZE])
        assert not flags & FLAG_CORRELATED
        assert length == len(b"plain")

    def test_zero_length_body_with_correlation(self):
        frame = encode_frame(b"", correlation_id=7)
        flags, length = parse_header(frame[:HEADER_SIZE])
        assert flags & FLAG_CORRELATED
        assert length == CORRELATION_SIZE  # id only, empty body

    def test_id_zero_is_valid(self):
        frame = encode_frame(b"b", correlation_id=0)
        flags, _length = parse_header(frame[:HEADER_SIZE])
        assert flags & FLAG_CORRELATED
        assert frame[HEADER_SIZE:] == bytes(CORRELATION_SIZE) + b"b"


class TestUriParsing:
    def test_parse_ok(self):
        uri = parse_uri("tcp://10.0.0.1:4711/some/path")
        assert uri.scheme == "tcp"
        assert uri.authority == "10.0.0.1:4711"
        assert uri.path == "some/path"
        assert str(uri) == "tcp://10.0.0.1:4711/some/path"

    @pytest.mark.parametrize(
        "bad",
        ["", "no-scheme", "tcp://", "tcp:///path", "tcp://host", "://x/y"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(AddressError):
            parse_uri(bad)

    def test_parse_host_port(self):
        assert parse_host_port("127.0.0.1:80") == ("127.0.0.1", 80)
        assert parse_host_port(":0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize("bad", ["nohost", "h:not-a-port", "h:70000"])
    def test_parse_host_port_errors(self, bad):
        with pytest.raises(AddressError):
            parse_host_port(bad)


class TestChannelServices:
    def test_register_and_resolve(self):
        services = ChannelServices()
        channel = LoopbackChannel()
        services.register_channel(channel)
        assert services.channel_for("loopback") is channel
        resolved, parsed = services.channel_for_uri("loopback://x/y")
        assert resolved is channel
        assert parsed.path == "y"

    def test_unknown_scheme(self):
        with pytest.raises(ChannelError, match="scheme"):
            ChannelServices().channel_for("gopher")

    def test_duplicate_scheme_rejected(self):
        services = ChannelServices()
        services.register_channel(LoopbackChannel())
        with pytest.raises(ChannelError):
            services.register_channel(LoopbackChannel())

    def test_same_instance_idempotent(self):
        services = ChannelServices()
        channel = LoopbackChannel()
        services.register_channel(channel)
        services.register_channel(channel)

    def test_unregister(self):
        services = ChannelServices()
        services.register_channel(LoopbackChannel())
        services.unregister_channel("loopback")
        with pytest.raises(ChannelError):
            services.channel_for("loopback")


def echo_handler(path, body, headers):
    # `body` may be a memoryview into the server's reusable receive buffer
    # on the fast path — bytes-like, but must be copied to concatenate.
    prefix = headers.get("prefix", "")
    return f"{prefix}{path}:".encode() + bytes(body)


def ephemeral_authority(channel):
    """The "pick one for me" authority of *channel*'s transport."""
    return "auto" if channel.scheme in ("loopback", "shm") else "127.0.0.1:0"


@pytest.fixture(params=["loopback", "tcp", "http", "aio", "shm"])
def channel_and_binding(request):
    if request.param == "loopback":
        channel = LoopbackChannel()
    elif request.param == "tcp":
        channel = TcpChannel()
    elif request.param == "aio":
        from repro.aio import AioTcpChannel

        channel = AioTcpChannel()
    elif request.param == "shm":
        channel = ShmChannel()
    else:
        channel = HttpChannel()
    binding = channel.listen(ephemeral_authority(channel), echo_handler)
    yield channel, binding
    binding.close()
    channel.close()


class TestChannelsCommonBehaviour:
    def test_echo(self, channel_and_binding):
        channel, binding = channel_and_binding
        result = channel.call(binding.authority, "obj/1", b"body")
        assert result == b"obj/1:body"

    def test_headers_delivered(self, channel_and_binding):
        channel, binding = channel_and_binding
        result = channel.call(
            binding.authority, "p", b"", headers={"prefix": ">>"}
        )
        assert result == b">>p:"

    def test_empty_body(self, channel_and_binding):
        channel, binding = channel_and_binding
        assert channel.call(binding.authority, "p", b"") == b"p:"

    def test_large_body(self, channel_and_binding):
        channel, binding = channel_and_binding
        body = bytes(range(256)) * 1024  # 256 KB
        result = channel.call(binding.authority, "big", body)
        assert result == b"big:" + body

    def test_sequential_reuse(self, channel_and_binding):
        channel, binding = channel_and_binding
        for index in range(20):
            assert channel.call(
                binding.authority, "n", str(index).encode()
            ) == f"n:{index}".encode()

    def test_handler_error_propagates(self, channel_and_binding):
        channel, binding = channel_and_binding

        def bad_handler(path, body, headers):
            raise ValueError("handler exploded")

        inner = type(channel)()
        bad = inner.listen(ephemeral_authority(inner), bad_handler)
        try:
            with pytest.raises(ChannelError, match="handler exploded"):
                channel.call(bad.authority, "x", b"")
        finally:
            bad.close()
            inner.close()

    def test_concurrent_clients(self, channel_and_binding):
        channel, binding = channel_and_binding
        errors = []

        def worker(index):
            try:
                for round_no in range(5):
                    body = f"{index}-{round_no}".encode()
                    assert channel.call(binding.authority, "c", body) == b"c:" + body
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestLoopbackSpecifics:
    def test_unbound_authority(self):
        channel = LoopbackChannel()
        with pytest.raises(ChannelClosedError):
            channel.call("nobody-home", "p", b"")

    def test_duplicate_authority_rejected(self):
        channel = LoopbackChannel()
        binding = channel.listen("dup-test-x", echo_handler)
        try:
            with pytest.raises(AddressError):
                channel.listen("dup-test-x", echo_handler)
        finally:
            binding.close()

    def test_authority_reusable_after_close(self):
        channel = LoopbackChannel()
        binding = channel.listen("reuse-test-x", echo_handler)
        binding.close()
        binding2 = channel.listen("reuse-test-x", echo_handler)
        binding2.close()

    def test_body_is_copied(self):
        captured = {}

        def capture(path, body, headers):
            captured["body"] = body
            return b""

        channel = LoopbackChannel()
        binding = channel.listen("copy-test-x", capture)
        try:
            original = bytearray(b"abc")
            channel.call("copy-test-x", "p", bytes(original))
            assert captured["body"] == b"abc"
        finally:
            binding.close()


class TestTcpSpecifics:
    def test_connect_refused(self):
        channel = TcpChannel()
        with pytest.raises(ChannelError):
            channel.call("127.0.0.1:1", "p", b"")  # port 1: nothing listens

    def test_closed_channel_rejects_calls(self):
        channel = TcpChannel()
        binding = channel.listen("127.0.0.1:0", echo_handler)
        channel.close()
        try:
            with pytest.raises(ChannelClosedError):
                channel.call(binding.authority, "p", b"")
        finally:
            binding.close()

    def test_binding_reports_real_port(self):
        channel = TcpChannel()
        binding = channel.listen("127.0.0.1:0", echo_handler)
        try:
            host, port = parse_host_port(binding.authority)
            assert port > 0
        finally:
            binding.close()
            channel.close()

    @pytest.mark.parametrize("kind", ["tcp", "http"])
    def test_reply_slower_than_the_dial_timeout(self, kind, monkeypatch):
        """The dial's timeout bounds the dial, not the wait for a reply."""
        dial = socket.create_connection

        def quick_dial(address, timeout=None, *args, **kwargs):
            return dial(address, 0.2, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", quick_dial)

        def slow_echo(path, body, headers):
            time.sleep(0.5)
            return echo_handler(path, body, headers)

        channel = TcpChannel() if kind == "tcp" else HttpChannel()
        binding = channel.listen("127.0.0.1:0", slow_echo)
        try:
            assert channel.call(binding.authority, "slow", b"x") == b"slow:x"
        finally:
            binding.close()
            channel.close()


def make_framed_channel(kind, formatter=None):
    if kind == "tcp":
        return TcpChannel(formatter)
    if kind == "shm":
        return ShmChannel(formatter)
    from repro.aio import AioTcpChannel

    return AioTcpChannel(formatter, request_timeout=5.0)


class TestFramedChannels:
    """What tcp, shm and aio owe their callers beyond the common contract."""

    @pytest.mark.parametrize("kind", ["tcp", "shm"])
    def test_soap_formatter_round_trips(self, kind):
        """Any formatter rides the one request path: SOAP appends its
        bytes to the frame through ``Formatter.dumps_into`` and decodes
        the reply from a view of the frame."""
        channel = make_framed_channel(kind, SoapFormatter())

        def doubler(path, body, headers):
            value = channel.formatter.loads(body)
            return channel.formatter.dumps(value * 2)

        binding = channel.listen(ephemeral_authority(channel), doubler)
        try:
            assert channel.round_trip(binding.authority, "p", 21) == 42
            assert channel.round_trip(binding.authority, "p", "ab") == "abab"
            assert channel.last_request_bytes == len(
                channel.formatter.dumps("ab")
            )
        finally:
            binding.close()
            channel.close()

    def test_tcp_client_keeps_one_receive_buffer_per_connection(self):
        """Replies land in the connection's buffer, which keeps its size
        between calls: emptying it would hand a large reply's pages back
        to the allocator only to fault them in on the next call."""
        buffers = []

        class Recording(BinaryFormatter):
            def loads(self, data):
                buffers.append(data.obj)
                return super().loads(data)

        channel = TcpChannel(Recording())
        binding = channel.listen(
            "127.0.0.1:0", lambda path, body, headers: bytes(body)
        )
        try:
            for size in (300_000, 10, 200_000):
                payload = bytes(size)
                reply = channel.round_trip(binding.authority, "p", payload)
                assert reply == payload
        finally:
            binding.close()
            channel.close()
        assert all(buffer is buffers[0] for buffer in buffers)
        assert len(buffers[0]) >= 300_000

    @pytest.mark.parametrize("kind", ["tcp", "shm", "aio"])
    def test_oversize_reply_is_an_error_reply(self, kind, monkeypatch):
        """A handler result too large to frame costs that one call, not
        the serving side of the connection."""
        from repro.channels import framing

        monkeypatch.setattr(framing, "MAX_FRAME", 1024)

        def handler(path, body, headers):
            return bytes(4096) if path == "big" else b"ok"

        channel = make_framed_channel(kind)
        binding = channel.listen(ephemeral_authority(channel), handler)
        try:
            with pytest.raises(
                ChannelError, match="response of 4096 bytes exceeds MAX_FRAME"
            ) as excinfo:
                channel.call(binding.authority, "big", b"")
            # A transport error would respawn restartable grains.
            assert not isinstance(excinfo.value, ChannelClosedError)
            assert channel.call(binding.authority, "small", b"") == b"ok"
        finally:
            binding.close()
            channel.close()


class TestHttpCodec:
    def test_request_shape(self):
        request = build_request("h:1", "obj/uri", {"k": "v"}, b"body")
        text = request.decode("iso-8859-1")
        assert text.startswith("POST /obj/uri HTTP/1.1\r\n")
        assert "Content-Length: 4" in text
        assert "x-parc-k: v" in text
        assert text.endswith("\r\n\r\nbody")

    def test_response_shape(self):
        response = build_response(200, "OK", b"abc")
        text = response.decode("iso-8859-1")
        assert text.startswith("HTTP/1.1 200 OK\r\n")
        assert text.endswith("\r\n\r\nabc")

    def test_read_http_message_roundtrip(self):
        left, right = socket.socketpair()
        try:
            left.sendall(build_response(500, "Oops", b"err"))
            start, headers, body = read_http_message(right)
            assert start == "HTTP/1.1 500 Oops"
            assert headers["content-length"] == "3"
            assert body == b"err"
        finally:
            left.close()
            right.close()

    def test_http_error_status_raises(self):
        channel = HttpChannel()

        def failing(path, body, headers):
            raise RuntimeError("boom")

        binding = channel.listen("127.0.0.1:0", failing)
        try:
            with pytest.raises(ChannelError, match="HTTP 500"):
                channel.call(binding.authority, "x", b"")
        finally:
            binding.close()
            channel.close()
