"""Large payloads are encoded by reference and sent from their own memory.

``BinaryFormatter.gather_into`` writes a ``bytes``, ``bytearray``,
``array`` or ndarray payload larger than ``INLINE_MAX`` up to its length
prefix and returns a view of the object with its offset; ``gather_parts``
joins the two into buffers whose concatenation is exactly what ``dumps``
returns, so the wire does not change.  The channels send those parts with
one gather write and release every view once the send returns, so the
caller (or the grain) may resize what it sent or returned.
"""

from __future__ import annotations

import array
import threading
from dataclasses import dataclass

import numpy
import pytest

from repro.channels import HttpChannel, LoopbackChannel, TcpChannel, create
from repro.channels.exchange import build_request_frame, serve_connection
from repro.channels.base import release_views
from repro.channels.framing import HEADER_SIZE, encode_frame, parse_header
from repro.channels.request import encode_request
from repro.channels.services import ChannelServices
from repro.channels.tcp import _TcpConnection
from repro.remoting import MarshalByRefObject, RemotingHost
from repro.errors import ChannelClosedError, SerializationError
from repro.remoting.messages import CallMessage, ReturnMessage
from repro.serialization import BinaryFormatter, serializable
from repro.serialization.codec import INLINE_MAX, gather_parts
from repro.shm import ShmChannel
from tests.unit.test_exchange import FakeChannel

FORMATTER = BinaryFormatter()
BULK = 256 * 1024
TYPECODES = "bBhHiIlLqQfd"


def gathered(value, fmt=FORMATTER):
    """``(spills, parts)`` for *value* gathered into a fresh bytearray."""
    out = bytearray()
    spills = fmt.gather_into(out, value)
    return spills, gather_parts(out, spills)


def spilled_objects(spills):
    return [view.obj for _offset, view in spills]


def sized_array(typecode, nbytes):
    item = array.array(typecode).itemsize
    return array.array(typecode, bytes(range(256)) * (nbytes // 256))[
        : nbytes // item
    ]


class TestPartsAreTheSameBytesUncopied:
    @pytest.mark.parametrize(
        "make", [bytes, bytearray], ids=["bytes", "bytearray"]
    )
    def test_byte_strings(self, make):
        value = make(bytes(range(256)) * 8)
        spills, parts = gathered(value)
        assert b"".join(parts) == FORMATTER.dumps(value)
        assert spilled_objects(spills) == [value]
        assert spilled_objects(spills)[0] is value

    @pytest.mark.parametrize("typecode", TYPECODES)
    def test_every_array_typecode(self, typecode):
        value = sized_array(typecode, 4096)
        spills, parts = gathered(value)
        assert b"".join(parts) == FORMATTER.dumps(value)
        (source,) = spilled_objects(spills)
        assert source is value
        assert [len(view) for _offset, view in spills] == [
            len(value) * value.itemsize
        ]

    @pytest.mark.parametrize("dtype", ["<f8", ">i4", "u1", "<c16"])
    def test_ndarray(self, dtype):
        value = numpy.arange(3 * 700).astype(dtype).reshape(3, 700)
        spills, parts = gathered(value)
        assert b"".join(parts) == FORMATTER.dumps(value)
        (source,) = spilled_objects(spills)
        assert source is value

    def test_non_contiguous_ndarray_sends_its_contiguous_copy(self):
        value = numpy.arange(4000, dtype="<f8").reshape(40, 100)[:, ::2]
        spills, parts = gathered(value)
        assert b"".join(parts) == FORMATTER.dumps(value)
        (source,) = spilled_objects(spills)
        assert source is not value and source.flags.c_contiguous

    @pytest.mark.parametrize(
        "make",
        [bytes, bytearray, lambda n: array.array("B", bytes(n)),
         lambda n: numpy.zeros(n, dtype="u1")],
        ids=["bytes", "bytearray", "array", "ndarray"],
    )
    def test_inline_up_to_the_limit(self, make):
        assert INLINE_MAX == 512
        small, large = make(INLINE_MAX), make(INLINE_MAX + 1)
        spills, parts = gathered(small)
        assert spills == [] and len(parts) == 1
        assert bytes(parts[0]) == FORMATTER.dumps(small)
        spills, parts = gathered(large)
        assert len(spills) == 1
        assert b"".join(parts) == FORMATTER.dumps(large)

    def test_nested_containers(self):
        blob = bytes(1000)
        grid = numpy.ones((20, 20))
        value = {
            "head": [1, "two", blob, (array.array("d", range(100)), b"tiny")],
            "grid": grid,
            "tail": bytearray(b"z" * 600),
            "after": list(range(50)),
        }
        spills, parts = gathered(value)
        assert b"".join(parts) == FORMATTER.dumps(value)
        assert FORMATTER.loads(b"".join(parts))["head"][2] == blob
        kinds = [type(source) for source in spilled_objects(spills)]
        assert kinds == [bytes, array.array, numpy.ndarray, bytearray]

    def test_same_array_twice_spills_once(self):
        shared = array.array("i", range(1000))
        value = [shared, shared, {"again": shared}]
        spills, parts = gathered(value)
        assert b"".join(parts) == FORMATTER.dumps(value)
        assert spilled_objects(spills) == [shared]
        decoded = FORMATTER.loads(b"".join(parts))
        assert decoded[0] is decoded[1] is decoded[2]["again"]

    def test_call_message_with_a_bulk_argument(self):
        payload = array.array("i", range(BULK // 4))
        message = CallMessage(uri="auto/echo-1", method="echo", args=(payload,))
        spills, parts = gathered(message)
        assert b"".join(parts) == FORMATTER.dumps(message)
        assert [part.obj for part in parts if len(part) == BULK] == [payload]
        assert sum(map(len, parts)) - BULK < 200  # the rest is inline

    def test_registered_dataclass_bytes_field(self):
        @serializable(name="test.gather.Blob")
        @dataclass
        class Blob:
            data: bytes = b""

        value = Blob(data=bytes(range(256)) * 4)
        assert len(value.data) > INLINE_MAX
        spills, parts = gathered(value)
        assert b"".join(parts) == FORMATTER.dumps(value)
        assert spilled_objects(spills) == [value.data]
        assert FORMATTER.loads(b"".join(parts)) == value

    def test_plain_bytearray_stays_inline(self):
        value = [bytes(4096), array.array("d", range(1000))]
        out = bytearray()
        FORMATTER.dumps_into(out, value)
        assert bytes(out) == FORMATTER.dumps(value)

    def test_release_gives_the_object_back(self):
        value = bytearray(4096)
        spills, parts = gathered([value])
        with pytest.raises(BufferError):
            value.extend(b"x")
        release_views(parts)
        value.extend(b"x")

    def test_failed_encode_keeps_no_view(self):
        value = bytearray(4096)
        with pytest.raises(SerializationError):
            FORMATTER.gather_into(bytearray(), [value, object()])
        value.extend(b"x")

    def test_request_frame_counts_the_referenced_bytes(self):
        payload = bytes(BULK)
        frame = bytearray()
        size, spills = build_request_frame(
            frame, 0, "p", {}, payload, FORMATTER.gather_into
        )
        assert size == len(FORMATTER.dumps(payload))
        joined = b"".join(gather_parts(frame, spills))
        _flags, length = parse_header(joined[:HEADER_SIZE])
        assert length == len(joined) - HEADER_SIZE
        assert joined == encode_frame(
            encode_request("p", {}, FORMATTER.dumps(payload))
        )


# -- view lifetime in the exchange --------------------------------------------


class ServerEnd:
    """A pipe holding one request; reading past it tries to grow *buf*.

    The serve loop reads the next frame only after its ``finally`` has
    run, so a view of the last reply that outlived the send shows here.
    """

    def __init__(self, frame, buf):
        self.frames = [frame]
        self.buf = buf
        self.replies = []
        self.grown = None

    def read_frame(self):
        if self.frames:
            frame = self.frames.pop()
            return 0, memoryview(bytearray(frame[HEADER_SIZE:]))
        try:
            self.buf.extend(b"x")
            self.grown = True
        except BufferError:
            self.grown = False
        raise ChannelClosedError("peer hung up")

    def send(self, parts):
        self.replies.append(b"".join(bytes(part) for part in parts))

    def release_frame(self):
        pass


def test_serve_loop_lets_go_of_a_reply_once_sent():
    buf = bytearray(BULK)

    def handler(path, body, headers):
        _spills, parts = gathered(ReturnMessage(value=buf))
        return parts

    end = ServerEnd(encode_frame(encode_request("p", {}, b"")), buf)
    serve_connection(end, handler, threading.Event())
    assert end.replies[0][HEADER_SIZE + 1:] == FORMATTER.dumps(
        ReturnMessage(value=bytearray(BULK))
    )
    assert end.grown


def test_failed_send_lets_go_of_the_callers_memory():
    def break_send(conn):
        def send(parts):
            raise OSError("pipe burst")

        conn.send = send

    channel = FakeChannel(rig=break_send)
    buf = bytearray(BULK)
    with pytest.raises(OSError, match="pipe burst") as failure:
        channel.round_trip("a:1", "p", [buf])
    assert failure.tb is not None  # holds the exchange's frame and locals
    buf.extend(b"x")


# -- live transports ----------------------------------------------------------


class Echo(MarshalByRefObject):
    def echo(self, value):
        return value


class Keeper(MarshalByRefObject):
    """Returns its own buffer; growing it next time needs no live view."""

    def __init__(self):
        self.buf = bytearray(BULK)

    def grow(self):
        self.buf.extend(b"x")
        return self.buf


KINDS = ["tcp", "shm", "aio", "http", "loopback", "chaos+tcp"]


def make_channel(kind):
    if kind == "tcp":
        return TcpChannel()
    if kind == "shm":
        return ShmChannel()
    if kind == "aio":
        from repro.aio import AioTcpChannel

        return AioTcpChannel()
    if kind == "http":
        return HttpChannel()
    if kind == "loopback":
        return LoopbackChannel()
    return create(kind)


@pytest.fixture
def remote(request):
    """``connect(cls) -> proxy`` to a fresh server host over one transport."""
    kind = request.param
    server = RemotingHost(name="gather-server", services=ChannelServices())
    server_channel = make_channel(kind)
    binding = server.listen(
        server_channel,
        "auto" if kind in ("shm", "loopback") else "127.0.0.1:0",
    )
    client_channel = make_channel(kind)
    services = ChannelServices()
    services.register_channel(client_channel)
    client = RemotingHost(name="gather-client", services=services)

    def connect(cls):
        path = cls.__name__.lower()
        server.register_well_known(cls, path)
        return client.get_object(
            f"{client_channel.scheme}://{binding.authority}/{path}"
        )

    yield connect
    client.close()
    client_channel.close()
    server.close()
    server_channel.close()


@pytest.mark.parametrize("remote", KINDS, indirect=True)
class TestEveryTransport:
    def test_bulk_array_round_trips(self, remote):
        payload = array.array("i", range(BULK // 4))
        assert remote(Echo).echo(payload) == payload

    def test_bulk_bytes_round_trip(self, remote):
        payload = bytes(range(256)) * (BULK // 256)
        assert remote(Echo).echo(payload) == payload


@pytest.mark.parametrize("remote", ["tcp", "shm"], indirect=True)
class TestNoExportLingers:
    def test_caller_can_resize_what_it_sent(self, remote):
        proxy = remote(Echo)
        arr = array.array("i", range(BULK // 4))
        ba = bytearray(BULK)
        assert proxy.echo(arr) == arr
        assert proxy.echo(ba) == ba
        arr.append(1)
        ba.extend(b"x")
        assert len(arr) == BULK // 4 + 1 and len(ba) == BULK + 1

    def test_grain_can_resize_what_it_returned(self, remote):
        proxy = remote(Keeper)
        assert len(proxy.grow()) == BULK + 1
        assert len(proxy.grow()) == BULK + 2  # BufferError if a view lived


@pytest.mark.parametrize("remote", ["tcp"], indirect=True)
def test_both_halves_send_from_their_objects(remote, monkeypatch):
    sent = []
    original = _TcpConnection.send

    def spy(self, parts):
        sent.append([getattr(part, "obj", None) for part in parts])
        original(self, parts)

    proxy = remote(Echo)
    monkeypatch.setattr(_TcpConnection, "send", spy)
    payload = array.array("d", range(BULK // 8))
    assert proxy.echo(payload) == payload
    request, reply = sent
    assert [obj for obj in request if obj is payload] == [payload]
    echoed = [obj for obj in reply if type(obj) is array.array]
    assert len(echoed) == 1 and echoed[0] == payload  # the server's copy


def test_reply_message_gathers_the_grain_memory():
    value = bytearray(BULK)
    spills, parts = gathered(ReturnMessage(value=value))
    assert b"".join(parts) == FORMATTER.dumps(ReturnMessage(value=value))
    assert spilled_objects(spills) == [value]
    release_views(parts)
