"""Wire tests for batched replies (returnN) and for refused methods.

Over the tcp, aio and shm transports (plus the chaos wrapper): a sync
aggregate round-trips as one ``ReturnBatch`` with per-call error slots,
and a host that refuses an aggregate method — every node of a cluster
runs one source tree, so this is a bug, not a version to negotiate
with — surfaces its ``RemoteInvocationError`` after exactly one request,
with nothing executed and nothing re-sent in another form.
"""

from __future__ import annotations

import pytest

from repro.aio import AioTcpChannel
from repro.channels.base import Channel
from repro.channels.services import ChannelServices
from repro.channels.tcp import TcpChannel
from repro.chaos import FaultyChannel
from repro.core.impl import ImplementationObject
from repro.core.proxy_object import RemoteGrain
from repro.errors import BatchCallError, RemoteInvocationError, ScooppError
from repro.remoting import RemotingHost
from repro.shm import ShmChannel


class Calc:
    """Deterministic little service: same args always mean same bytes."""

    def __init__(self):
        self.seen = 0

    def mul(self, a, b):
        self.seen += 1
        return a * b

    def note(self, a, b):
        self.seen += 1

    def pick(self, value):
        self.seen += 1
        if value < 0:
            raise ValueError(f"no negatives: {value}")
        return value * 2.0


class RefusingImplementationObject(ImplementationObject):
    """An IO whose host refuses every aggregate method.

    ``None`` class attributes make the host's method resolution answer
    "has no remote method" before anything runs.
    """

    invoke_batch = None
    enqueue_batch = None


class RecordingChannel(Channel):
    """Client-side wrapper capturing every (path, request, response)."""

    def __init__(self, inner):
        super().__init__(inner.formatter)
        self.inner = inner
        self.scheme = inner.scheme
        self.exchanges = []

    def listen(self, authority, handler):
        return self.inner.listen(authority, handler)

    def call(self, authority, path, body, headers=None):
        response = self.inner.call(authority, path, body, headers=headers)
        self.exchanges.append((path, bytes(body), bytes(response)))
        return response

    def close(self):
        self.inner.close()


@pytest.fixture(params=["tcp", "aio", "shm", "chaos+tcp"])
def transport(request):
    return request.param


def make_channel(kind):
    if kind == "tcp":
        return TcpChannel()
    if kind == "aio":
        return AioTcpChannel()
    if kind == "shm":
        return ShmChannel()
    return FaultyChannel(TcpChannel())  # zero-fault chaos passthrough


def authority_for(kind):
    return "auto" if kind == "shm" else "127.0.0.1:0"


def serve_io(kind, io_class=ImplementationObject):
    """Boot a server host exposing one IO at a well-known path."""
    server = RemotingHost(name="returnn-server", services=ChannelServices())
    channel = make_channel(kind)
    binding = server.listen(channel, authority_for(kind))
    io = io_class(Calc(), "Calc")
    server.publish(io, "io")
    uri = f"{channel.scheme}://{binding.authority}/io"
    return server, io, uri


def connect(kind, uri, record=False):
    """Client host + proxy + grain for *uri*; returns all four pieces."""
    channel = make_channel(kind)
    if record:
        channel = RecordingChannel(channel)
    services = ChannelServices()
    services.register_channel(channel)
    client = RemotingHost(name="returnn-client", services=services)
    proxy = client.get_object(uri)
    grain = RemoteGrain(proxy, max_calls=4)
    return client, channel, proxy, grain


@pytest.fixture
def pair(transport):
    server, io, uri = serve_io(transport)
    client, channel, proxy, grain = connect(transport, uri)
    yield io, grain
    grain.dispose()
    client.close()
    channel.close()  # hosts leave channels they share via services open
    io.dispose()
    server.close()


@pytest.fixture
def refusing_pair(transport):
    server, io, uri = serve_io(
        transport, io_class=RefusingImplementationObject
    )
    client, channel, proxy, grain = connect(transport, uri, record=True)
    yield io, grain, channel
    grain.dispose()
    client.close()
    channel.close()  # hosts leave channels they share via services open
    io.dispose()
    server.close()


BATCH = [((float(i), 3.0), {}) for i in range(8)]
EXPECTED = [float(i) * 3.0 for i in range(8)]


class TestBatching:
    def test_call_many_round_trips_one_returnn(self, pair):
        io, grain = pair
        assert grain.call_many("mul", BATCH) == EXPECTED
        # One mailbox entry server-side, not eight.
        assert io.stats()["processed"] == len(BATCH)

    @pytest.mark.parametrize(
        "last", [7, 2**61], ids=["int-column", "beyond-int64-list"]
    )
    def test_call_many_int_results_stay_ints(self, pair, last):
        _io, grain = pair
        batch = [((i, -3), {}) for i in range(7)] + [((last, 8), {})]
        results = grain.call_many("mul", batch)
        assert results == [i * -3 for i in range(7)] + [last * 8]
        assert all(type(value) is int for value in results)

    def test_error_slots_survive_the_wire(self, pair):
        _io, grain = pair
        batch = [((1.0,), {}), ((-2.0,), {}), ((3.0,), {})]
        with pytest.raises(BatchCallError) as excinfo:
            grain.call_many("pick", batch)
        error = excinfo.value
        assert error.results == [2.0, None, 6.0]
        assert set(error.failures) == {1}
        assert isinstance(error.failures[1], RemoteInvocationError)
        assert "no negatives" in str(error.failures[1])


class TestRefusedMethod:
    """The refusal surfaces once: nothing ran, nothing was re-sent."""

    def test_refused_invoke_batch(self, refusing_pair):
        io, grain, channel = refusing_pair
        with pytest.raises(RemoteInvocationError, match="invoke_batch"):
            grain.call_many("mul", BATCH)
        assert io.stats()["processed"] == 0
        assert len(channel.exchanges) == 1

    def test_refused_invoke_columns(self, refusing_pair):
        # A columnar call_many is an invoke_batch entry that carries columns.
        io, grain, channel = refusing_pair
        grain.columnar, grain.impl_class = True, Calc
        with pytest.raises(RemoteInvocationError, match="invoke_batch"):
            grain.call_many("mul", BATCH)
        assert io.stats()["processed"] == 0
        assert len(channel.exchanges) == 1

    def test_refused_enqueue_columns(self, refusing_pair):
        # A columnar aggregate is an enqueue_batch entry that carries columns.
        io, grain, channel = refusing_pair
        grain.columnar, grain.impl_class = True, Calc
        for args, kwargs in BATCH[: grain.max_calls]:
            grain.post("note", args, kwargs)
        with pytest.raises(ScooppError, match="enqueue_batch") as excinfo:
            grain.drain()
        assert isinstance(excinfo.value.__cause__, RemoteInvocationError)
        assert io.stats()["processed"] == 0
        assert len(channel.exchanges) == 1
        assert grain.columnar
