"""Ping-pong drivers: the paper's low-level test (§4).

"Low-level performance was evaluated by a ping-pong test, where messages
with several sizes are exchanged between two nodes ... an array of
integers is sent and received as the method parameter and return type."

Two kinds of driver:

* ``message_bytes_*`` — encode one request/response pair with the stack's
  *real* protocol code and report the wire bytes; feed these to
  :func:`modeled_time_from_bytes` with a platform model to regenerate the
  paper's curves;
* ``live_pingpong_*`` — run the full stack over real localhost transport
  and measure wall-clock round trips (functional validation; absolute
  numbers are this machine's, not the paper's).
"""

from __future__ import annotations

import time
from array import array

from repro.channels import HttpChannel, TcpChannel
from repro.channels import create as channels_create
from repro.mpi import run_mpi
from repro.nio import ByteBuffer, ServerSocketChannel, SocketChannel
from repro.perfmodel.platforms import PlatformModel
from repro.remoting import MarshalByRefObject, RemotingHost, WellKnownObjectMode
from repro.remoting.messages import CallMessage, ReturnMessage
from repro.rmi import Naming, Remote, UnicastRemoteObject, remote_method
from repro.rmi.registry import LocateRegistry
from repro.rmi.runtime import RmiCall, RmiReturn
from repro.serialization import BinaryFormatter, Formatter


def int_payload(n_ints: int) -> array:
    """The benchmark payload: an int array (4 bytes per element)."""
    return array("i", range(n_ints))


# -- protocol byte measurement ------------------------------------------------

def message_bytes_remoting(
    n_ints: int, formatter: Formatter | None = None
) -> tuple[int, int]:
    """(request, response) wire bytes of one remoting echo call."""
    fmt = formatter if formatter is not None else BinaryFormatter()
    payload = int_payload(n_ints)
    request = fmt.dumps(
        CallMessage(uri="pingpong", method="echo", args=(payload,))
    )
    response = fmt.dumps(ReturnMessage(value=payload))
    return len(request), len(response)


def message_bytes_rmi(n_ints: int) -> tuple[int, int]:
    """(request, response) wire bytes of one RMI-analog echo call."""
    fmt = BinaryFormatter()
    payload = int_payload(n_ints)
    request = fmt.dumps(
        RmiCall(
            object_id="obj-1",
            operation="echo(1)",
            args=(payload,),
            annotations=[type(payload).__qualname__],
        )
    )
    response = fmt.dumps(RmiReturn(value=payload))
    return len(request), len(response)


def message_bytes_mpi(n_ints: int) -> tuple[int, int]:
    """(request, response) wire bytes of one MPI echo: the raw buffer."""
    raw = len(int_payload(n_ints).tobytes())
    return raw, raw


def message_bytes_nio(n_ints: int) -> tuple[int, int]:
    """(request, response) bytes of one nio echo: buffer + hand framing."""
    raw = len(int_payload(n_ints).tobytes()) + 4  # 4-byte length prefix
    return raw, raw


# -- model pricing -------------------------------------------------------------

def modeled_time_from_bytes(
    model: PlatformModel, request_bytes: int, response_bytes: int
) -> float:
    """Round-trip seconds pricing *measured* wire bytes with *model*.

    The model's ``wire_expansion`` is NOT applied here — the measured
    bytes already contain the real protocol expansion.
    """
    per_byte = 1.0 / model.wire_bandwidth_Bps
    return (
        2.0 * model.one_way_latency_s
        + (request_bytes + response_bytes) * per_byte
    )


def modeled_bandwidth_from_bytes(
    model: PlatformModel,
    payload_bytes: int,
    request_bytes: int,
    response_bytes: int,
) -> float:
    """Application bandwidth (payload bytes/s each way), as Fig. 8 plots."""
    round_trip = modeled_time_from_bytes(model, request_bytes, response_bytes)
    return 2.0 * payload_bytes / round_trip


# -- live drivers ---------------------------------------------------------------

class _EchoServer(MarshalByRefObject):
    """Remoting echo service (int array in, int array out)."""

    def echo(self, values: array) -> array:
        return values


def live_pingpong_remoting(
    n_ints: int, rounds: int = 10, channel_kind: str = "tcp"
) -> float:
    """Average round-trip seconds over a real transport (remoting stack).

    ``channel_kind`` is any base scheme the factory knows — ``"tcp"``,
    ``"http"``, ``"shm"`` (shared-memory rings, no wire at all), ...
    """
    from repro.channels.services import ChannelServices

    if channel_kind == "tcp":
        channel_cls = TcpChannel
    elif channel_kind == "http":
        channel_cls = HttpChannel
    else:
        def channel_cls():  # type: ignore[misc]
            return channels_create(channel_kind)
    server_channel = channel_cls()
    # Socket schemes (under any wrapper prefix) bind an ephemeral port;
    # non-socket schemes (shm, loopback) mint their own authority token.
    if server_channel.scheme.rpartition("+")[2] in ("tcp", "http", "aio"):
        listen_authority = "127.0.0.1:0"
    else:
        listen_authority = "auto"
    server_services = ChannelServices()
    host = RemotingHost(name="pingpong-server", services=server_services)
    binding = host.listen(server_channel, listen_authority)
    host.register_well_known(_EchoServer, "pingpong", WellKnownObjectMode.SINGLETON)
    client_services = ChannelServices()
    client_channel = channel_cls()
    client_services.register_channel(client_channel)
    client = RemotingHost(name="pingpong-client", services=client_services)
    try:
        proxy = client.get_object(
            f"{client_channel.scheme}://{binding.authority}/pingpong"
        )
        payload = int_payload(n_ints)
        proxy.echo(payload)  # warm up (connect, lazy singleton)
        started = time.perf_counter()
        for _ in range(rounds):
            result = proxy.echo(payload)
        elapsed = time.perf_counter() - started
        assert len(result) == n_ints
        return elapsed / rounds
    finally:
        client.close()
        host.close()
        client_channel.close()


def _channel_for(channel_kind: str):  # type: ignore[no-untyped-def]
    if channel_kind.startswith("chaos+"):
        # Zero-fault plan: measures the pure interposition cost of the
        # chaos wrapper (one RNG draw + counter per call), not faults.
        from repro.chaos import FaultPlan

        return channels_create(channel_kind, chaos_plan=FaultPlan(seed=0))
    return channels_create(channel_kind)


def live_concurrent_pingpong(
    n_ints: int,
    callers: int,
    calls_per_caller: int = 100,
    channel_kind: str = "tcp",
) -> float:
    """Aggregate calls/second with *callers* concurrent proxy threads.

    The single-caller ping-pong above measures latency; this driver
    measures what the transport does under concurrency, which is where
    the thread-per-socket :class:`TcpChannel` and the multiplexed
    :class:`repro.aio.AioTcpChannel` diverge: tcp spends a pooled socket
    (client) and an OS thread (server) per concurrent caller, aio keeps
    every caller's request in flight on one pipelined socket per peer.
    All callers share one channel and one proxy, as remoting clients in
    one process would.
    """
    import threading

    from repro.channels.services import ChannelServices

    server_services = ChannelServices()
    host = RemotingHost(name="pingpong-server", services=server_services)
    server_channel = _channel_for(channel_kind)
    authority = (
        "127.0.0.1:0"
        if server_channel.scheme.rpartition("+")[2] in ("tcp", "http", "aio")
        else "auto"
    )
    binding = host.listen(server_channel, authority)
    host.register_well_known(_EchoServer, "pingpong", WellKnownObjectMode.SINGLETON)
    client_services = ChannelServices()
    client_channel = _channel_for(channel_kind)
    client_services.register_channel(client_channel)
    client = RemotingHost(name="pingpong-client", services=client_services)
    try:
        proxy = client.get_object(
            f"{client_channel.scheme}://{binding.authority}/pingpong"
        )
        payload = int_payload(n_ints)
        proxy.echo(payload)  # warm up (connect, lazy singleton)
        barrier = threading.Barrier(callers + 1)
        failures: list[BaseException] = []

        def worker() -> None:
            try:
                barrier.wait()
                for _ in range(calls_per_caller):
                    proxy.echo(payload)
            except BaseException as exc:  # noqa: BLE001 - reraised below
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, daemon=True) for _ in range(callers)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if failures:
            raise failures[0]
        return callers * calls_per_caller / elapsed
    finally:
        client.close()
        host.close()
        client_channel.close()


class _IEcho(Remote):
    @remote_method
    def echo(self, values):  # type: ignore[no-untyped-def]
        """Echo the payload back."""
        raise NotImplementedError


class _EchoRemote(UnicastRemoteObject, _IEcho):
    def echo(self, values):  # type: ignore[no-untyped-def]
        return values


def live_pingpong_rmi(n_ints: int, rounds: int = 10) -> float:
    """Average round-trip seconds over real sockets (RMI analog)."""
    registry_runtime, _registry = LocateRegistry.create_registry()
    server = _EchoRemote()
    try:
        endpoint = registry_runtime.endpoint
        Naming.rebind(f"rmi://{endpoint}/echo", server)
        stub = Naming.lookup(f"rmi://{endpoint}/echo", _IEcho)
        payload = int_payload(n_ints)
        stub.echo(payload)  # warm up
        started = time.perf_counter()
        for _ in range(rounds):
            result = stub.echo(payload)
        elapsed = time.perf_counter() - started
        assert len(result) == n_ints
        return elapsed / rounds
    finally:
        from repro.rmi.runtime import default_runtime

        default_runtime().unexport(server)
        registry_runtime.close()


def live_pingpong_mpi(n_ints: int, rounds: int = 10) -> float:
    """Average round-trip seconds through the MPI analog (2 ranks)."""

    def main(comm):  # type: ignore[no-untyped-def]
        payload = int_payload(n_ints)
        if comm.rank == 0:
            comm.send(payload, dest=1, tag=0)  # warm up
            comm.recv(source=1, tag=1)
            started = time.perf_counter()
            for _ in range(rounds):
                comm.send(payload, dest=1, tag=0)
                comm.recv(source=1, tag=1)
            return (time.perf_counter() - started) / rounds
        for _ in range(rounds + 1):
            data, _status = comm.recv(source=0, tag=0)
            comm.send(data, dest=0, tag=1)
        return None

    results = run_mpi(2, main)
    return results[0]


def live_pingpong_nio(n_ints: int, rounds: int = 10) -> float:
    """Average round-trip seconds over real sockets (nio analog).

    Framing is hand-rolled (length prefix + raw buffer), as a java.nio
    user would write it.
    """
    import threading

    payload_bytes = int_payload(n_ints).tobytes()
    frame_size = 4 + len(payload_bytes)
    server = ServerSocketChannel.open().bind(("127.0.0.1", 0))
    ready = threading.Event()

    def serve() -> None:
        channel = server.accept()
        buffer = ByteBuffer.allocate(frame_size)
        try:
            for _ in range(rounds + 1):
                buffer.clear()
                channel.read_fully(buffer)
                buffer.flip()
                channel.write_fully(buffer)
        finally:
            channel.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = SocketChannel.open(server.local_address)
    try:
        out = ByteBuffer.allocate(frame_size)

        def round_trip() -> None:
            out.clear()
            out.put_int(len(payload_bytes)).put(payload_bytes)
            out.flip()
            client.write_fully(out)
            out.clear()
            client.read_fully(out)

        round_trip()  # warm up
        started = time.perf_counter()
        for _ in range(rounds):
            round_trip()
        elapsed = time.perf_counter() - started
        ready.set()
        return elapsed / rounds
    finally:
        client.close()
        thread.join(timeout=5.0)
        server.close()
