"""Wire-interop tests for batched replies (returnN).

The returnN negotiation is one-sided and silent: a new client first tries
the aggregate ``invoke_batch`` surface and, when the peer predates it,
drops — permanently, per grain — to a loop of plain per-call ``invoke``
round-trips.  These tests pin that matrix across the tcp, aio and shm
transports (plus the chaos wrapper): a new↔new pairing batches, a
new↔old pairing loses zero calls, and the fallback's per-call responses
are *byte-identical* to a hand-written per-call client, so an old peer
cannot tell a falling-back caller from a genuinely old one.
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
from repro.errors import BatchCallError, RemoteInvocationError
from repro.remoting import RemotingHost
from repro.shm import ShmChannel


class Calc:
    """Deterministic little service: same args always mean same bytes."""

    def __init__(self):
        self.seen = 0

    def mul(self, a, b):
        self.seen += 1
        return a * b

    def pick(self, value):
        self.seen += 1
        if value < 0:
            raise ValueError(f"no negatives: {value}")
        return value * 2.0


class OldImplementationObject(ImplementationObject):
    """An IO from before the returnN change.

    ``None`` class attributes make the host's method resolution answer
    "has no remote method", exactly what a genuinely old peer says, so
    the client-side negotiation sees the real wire-level refusal.
    """

    invoke_batch = None
    invoke_columns = None


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
def new_pair(transport):
    server, io, uri = serve_io(transport)
    client, channel, proxy, grain = connect(transport, uri)
    yield io, grain
    grain.dispose()
    client.close()
    channel.close()  # hosts leave channels they share via services open
    io.dispose()
    server.close()


@pytest.fixture
def old_pair(transport):
    server, io, uri = serve_io(transport, io_class=OldImplementationObject)
    client, channel, proxy, grain = connect(transport, uri)
    yield io, grain
    grain.dispose()
    client.close()
    channel.close()  # hosts leave channels they share via services open
    io.dispose()
    server.close()


BATCH = [((float(i), 3.0), {}) for i in range(8)]
EXPECTED = [float(i) * 3.0 for i in range(8)]


class TestNewPeerBatching:
    def test_call_many_round_trips_one_returnn(self, new_pair):
        io, grain = new_pair
        assert grain.call_many("mul", BATCH) == EXPECTED
        assert grain._sync_batched is True
        # One mailbox entry server-side, not eight.
        assert io.stats()["processed"] == len(BATCH)

    def test_error_slots_survive_the_wire(self, new_pair):
        _io, grain = new_pair
        batch = [((1.0,), {}), ((-2.0,), {}), ((3.0,), {})]
        with pytest.raises(BatchCallError) as excinfo:
            grain.call_many("pick", batch)
        error = excinfo.value
        assert error.results == [2.0, None, 6.0]
        assert set(error.failures) == {1}
        assert isinstance(error.failures[1], RemoteInvocationError)
        assert "no negatives" in str(error.failures[1])
        # The grain stays batched: an application error is not a
        # negotiation signal.
        assert grain._sync_batched is True


class TestOldPeerFallback:
    def test_fallback_loses_zero_calls(self, old_pair):
        io, grain = old_pair
        assert grain.call_many("mul", BATCH) == EXPECTED
        assert grain._sync_batched is False  # negotiated down for good
        assert io.stats()["processed"] == len(BATCH)
        # Second aggregate goes straight to per-call invokes — no
        # renewed invoke_batch probe, still no losses.
        assert grain.call_many("mul", BATCH) == EXPECTED
        assert io.stats()["processed"] == 2 * len(BATCH)

    def test_fallback_error_slots_match_batched_contract(self, old_pair):
        _io, grain = old_pair
        batch = [((1.0,), {}), ((-2.0,), {}), ((3.0,), {})]
        with pytest.raises(BatchCallError) as excinfo:
            grain.call_many("pick", batch)
        error = excinfo.value
        assert error.results == [2.0, None, 6.0]
        assert set(error.failures) == {1}
        assert isinstance(error.failures[1], RemoteInvocationError)


class TestFallbackByteIdentity:
    def test_fallback_requests_and_replies_match_plain_per_call(
        self, transport
    ):
        """An old server cannot distinguish a falling-back new client.

        Record the fallback's wire traffic, then replay the same batch
        as hand-written per-call invokes from a fresh client: after the
        one refused invoke_batch probe, every request and response byte
        must match.
        """
        server, io, uri = serve_io(
            transport, io_class=OldImplementationObject
        )
        try:
            client_a, channel_a, _proxy, grain = connect(
                transport, uri, record=True
            )
            assert grain.call_many("mul", BATCH) == EXPECTED
            fallback = list(channel_a.exchanges)

            client_b, channel_b, proxy, _grain = connect(
                transport, uri, record=True
            )
            for args, kwargs in BATCH:
                proxy.invoke("mul", args, kwargs)
            plain = list(channel_b.exchanges)
            client_b.close()
            channel_b.close()

            grain.dispose()  # remote-disposes the shared IO: last
            client_a.close()
            channel_a.close()
        finally:
            io.dispose()
            server.close()

        # fallback[0] is the refused invoke_batch probe; everything
        # after it is the per-call fallback loop.
        per_call = fallback[1 : 1 + len(BATCH)]
        assert len(per_call) == len(BATCH)
        assert per_call == plain[: len(BATCH)]
