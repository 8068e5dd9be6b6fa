"""The per-layer call ladder: the same messages, one layer at a time.

The core rung runs first and *captures* the messages a PO call really
puts on the wire — one small sync call, one bulk sync call, one 32-call
columnar batch.  Every rung below replays exactly those messages, or
byte strings of exactly their sizes:

    nio            raw socket round trip of the request/response sizes
    channels       frame build/parse; TcpChannel.round_trip byte echo
    aio, shm       the same byte echo over the other two pipes
    serialization  FastBinaryFormatter on the captured messages
    remoting       RemotingHost proxy echo, spans around the channel
    core           PO calls on an in-process tcp cluster, same spans

All rungs are in-process: client and server are threads that share
``perf_counter_ns``, which is what lets a span opened on one side be
subtracted from a span opened on the other.  The rungs that need real
worker processes are short runs of the workloads (:mod:`trace_run`).
How the rungs add up to one call is in the README ("Reconciliation").

Each rung takes a *host* callable (``measure.HostProbe`` behind it) and
divides what it times by the factor read just before.
"""

from __future__ import annotations

import socket
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable

import repro.core as parc
from repro import channels
from repro.channels.framing import read_frame_into, write_frame_parts
from repro.channels.request import decode_request_view, encode_request
from repro.channels.services import ChannelServices
from repro.channels.tcp import TcpChannel
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.nio import ByteBuffer, ServerSocketChannel, SocketChannel
from repro.remoting import MarshalByRefObject, RemotingHost, WellKnownObjectMode
from repro.serialization import FastBinaryFormatter
from repro.serialization.codec import (
    method_column_plan,
    pack_columns,
    unpack_columns,
)

import objects
from measure import CHUNK, median
from spans import SpanChannel, SpanRecorder

SMALL_INTS = 64
BULK_INTS = 65_536
BATCH_CALLS = 32

#: A single-threaded frame write must fit the socketpair's buffers.
_FRAME_SOCKET_BUFFER = 4 << 20
_FRAME_SOCKET_TIMEOUT_S = 5.0


@dataclass
class CoreRung:
    metrics: dict[str, float]
    #: Median server-handler span of the small sync call, microseconds.
    handler_us: float


@dataclass
class CodecRung:
    metrics: dict[str, float]
    #: Encoded ``ReturnMessage`` size per message key.
    reply_bytes: dict[str, int] = field(default_factory=dict)
    #: ``dumps(call) + loads(reply)`` of the small message: the codec
    #: work on the client side of one round trip.
    client_small_us: float = 0.0


#: Reads the host's slow-down factor (``measure.HostProbe``); every
#: timing taken right after it is divided by it.
Host = Callable[[], float]


def time_op(fn: Callable[[], Any], iters: int, host: Host, blocks: int = 20) -> float:
    """Microseconds per call of *fn*: the median of *blocks* timed
    blocks of *iters* calls, each scaled by the host factor read
    before it."""
    per_call = []
    for _ in range(blocks):
        factor = host()
        start = time.perf_counter_ns()
        for _ in range(iters):
            fn()
        elapsed = time.perf_counter_ns() - start
        per_call.append(elapsed / iters / 1000.0 / factor)
    return median(per_call)


def time_round_trips(fn: Callable[[], Any], count: int, warmup: int, host: Host) -> float:
    """Microseconds of one call of *fn*: *count* individually timed
    calls in chunks, the median of the chunks' scaled medians."""
    for _ in range(warmup):
        fn()
    medians = []
    for first in range(0, count, CHUNK):
        factor = host()
        samples = []
        for _ in range(min(CHUNK, count - first)):
            start = time.perf_counter_ns()
            fn()
            samples.append(time.perf_counter_ns() - start)
        medians.append(median(samples) / 1000.0 / factor)
    return median(medians)


def _iters(base: int, scale: float) -> int:
    return max(20, int(base * scale))


# -- core: PO calls on an in-process tcp cluster ------------------------------


class _Capture:
    """Keeps the first request/reply pair matching a predicate."""

    def __init__(self) -> None:
        self.want: Callable[[Any], bool] | None = None
        self.pair: tuple[Any, Any] | None = None

    def arm(self, want: Callable[[Any], bool]) -> None:
        self.pair, self.want = None, want


class _CapturingChannel(SpanChannel):
    def __init__(self, inner, recorder, capture: _Capture) -> None:  # type: ignore[no-untyped-def]
        super().__init__(inner, recorder)
        self.capture = capture

    def round_trip(self, authority, path, message, headers=None):  # type: ignore[no-untyped-def]
        reply = super().round_trip(authority, path, message, headers=headers)
        capture = self.capture
        if capture.want is not None and capture.want(message):
            capture.pair, capture.want = (message, reply), None
        return reply


class _SpannedTcp:
    """``with`` block under which every ``tcp`` channel records spans.

    The cluster only accepts registered base schemes (it rejects custom
    ``+`` wrappers), so the wrapper goes in through the public
    ``channels.register_scheme("tcp", ..., replace=True)`` and the plain
    factory is put back on exit.
    """

    def __init__(self, recorder: SpanRecorder, capture: _Capture) -> None:
        self.recorder, self.capture = recorder, capture

    def __enter__(self) -> "_SpannedTcp":
        channels.register_scheme(
            "tcp",
            lambda **opts: _CapturingChannel(
                TcpChannel(**opts), self.recorder, self.capture
            ),
            replace=True,
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        channels.register_scheme(
            "tcp", lambda **opts: TcpChannel(**opts), replace=True
        )


def _place_remote_and_home(runtime, cls):  # type: ignore[no-untyped-def]
    """One grain of *cls* on each of the two in-process nodes.

    Round-robin placement decides where ``new`` lands; ``stats()`` says
    where it did.  Returns ``(remote, home)``.
    """
    by_node: dict[int, Any] = {}
    for _ in range(2):
        before = [row["ios"] for row in runtime.stats()]
        grain = parc.new(cls)
        after = [row["ios"] for row in runtime.stats()]
        node = next(i for i, (a, b) in enumerate(zip(before, after)) if b > a)
        by_node[node] = grain
    if set(by_node) != {0, 1}:
        raise RuntimeError(f"round-robin placed both grains on {set(by_node)}")
    return by_node[1], by_node[0]


def _traced_calls(recorder: SpanRecorder, call, payload, count: int, host: Host) -> int:  # type: ignore[no-untyped-def]
    """*count* ``call(payload)`` ops under ``op`` spans; returns mismatches."""
    wrong = 0
    for index in range(count):
        if index % CHUNK == 0:
            factor = host()
        op = recorder.begin_op()
        recorder.host[op] = factor
        start = time.perf_counter_ns()
        reply = call(payload)
        recorder.end_op(start, time.perf_counter_ns())
        if reply != payload:
            wrong += 1
    return wrong


def _attach_user_stamps(recorder: SpanRecorder) -> None:
    """Turn the grain's execution stamps into ``user.method`` spans.

    One stamp per op, in op order: the loop is closed and the traced
    grains serve only the measured caller.
    """
    handlers = [
        (op, thread)
        for name, _start, _end, op, thread in recorder.spans
        if name == "server.handler"
    ]
    for (op, thread), stamp in zip(handlers, objects.user_stamps):
        recorder.spans.append(("user.method", stamp, stamp, op, thread))
    objects.user_stamps.clear()


def _span_medians(recorder: SpanRecorder) -> dict[str, float]:
    """Median microseconds of the op, of its self time above the
    channel, of the wire (round trip minus handler) and of the server
    handler — each span scaled by its op's host factor."""
    ops = [
        {name: duration / recorder.host[op] for name, duration in spans.items()}
        for op, spans in recorder.durations_by_op().items()
        if {"op", "client.round_trip", "server.handler"} <= set(spans)
    ]
    if not ops:
        raise RuntimeError("traced rung recorded no complete op")
    return {
        "op": median([s["op"] for s in ops]) / 1000.0,
        "above": median([s["op"] - s["client.round_trip"] for s in ops]) / 1000.0,
        "wire": median(
            [s["client.round_trip"] - s["server.handler"] for s in ops]
        ) / 1000.0,
        "handler": median([s["server.handler"] for s in ops]) / 1000.0,
    }


def core_rung(scale: float, recorder: SpanRecorder, host: Host) -> tuple[CoreRung, dict, int, int]:
    """PO calls over tcp between two in-process nodes.

    Returns ``(rung, captured, attempted, failed)`` where *captured*
    maps ``small`` / ``bulk`` / ``batch`` to the ``(CallMessage,
    ReturnMessage)`` pair that crossed the channel.
    """
    small = array("i", range(SMALL_INTS))
    bulk = array("i", range(BULK_INTS))
    capture = _Capture()
    captured: dict[str, tuple] = {}
    metrics: dict[str, float] = {}
    attempted = failed = 0
    n_small = _iters(1500, scale)

    with _SpannedTcp(recorder, capture):
        with parc.session(ParcConfig(nodes=2, channel="tcp")) as runtime:
            remote, home = _place_remote_and_home(runtime, objects.StampedEcho)
            for key, payload in (("small", small), ("bulk", bulk)):
                capture.arm(lambda m: getattr(m, "method", "") == "invoke")
                remote.echo(payload)
                if capture.pair is None:
                    raise RuntimeError(f"no invoke message captured for {key}")
                captured[key] = capture.pair
            for _ in range(n_small // 10):
                remote.echo(small)
            objects.user_stamps.clear()
            failed += _traced_calls(recorder, remote.echo, small, n_small, host)
            attempted += n_small
            _attach_user_stamps(recorder)
            spans = _span_medians(recorder)
            metrics["core.sync_rtt_us"] = spans["op"]
            metrics["core.po_self_us"] = spans["above"]
            core_handler_us = spans["handler"]

            home_calls = n_small
            metrics["core.inline_rtt_us"] = time_round_trips(
                lambda: home.echo(small), home_calls, home_calls // 10, host
            )
            attempted += home_calls
            # The one read outside public API (README, "Private reads"):
            # the inline counter is per IO and no node-level stat sums it.
            io_stats = home._parc_grain.impl.stats()
            metrics["core.sync_inline"] = float(io_stats["sync_inline"])
            objects.user_stamps.clear()
            remote.parc_release()
            home.parc_release()

        batch_policy = SchedulerConfig(grain=GrainPolicy(max_calls=BATCH_CALLS))
        config = ParcConfig(nodes=2, channel="tcp", scheduler=batch_policy)
        with parc.session(config) as runtime:
            sink, spare = _place_remote_and_home(runtime, objects.Counter)
            spare.parc_release()
            capture.arm(
                lambda m: getattr(m, "method", "")
                in ("enqueue_columns", "enqueue_batch")
            )
            for value in range(BATCH_CALLS):
                sink.tick(value)
            posted, total = BATCH_CALLS, sum(range(BATCH_CALLS))
            if sink.count() != (posted, total):
                failed += 1
            attempted += 1
            if capture.pair is None:
                raise RuntimeError("no batch message captured")
            captured["batch"] = capture.pair

            rounds, per_round = 15, _iters(100, scale) * BATCH_CALLS
            post_us, barrier_us = [], []
            for _ in range(rounds):
                factor = host()
                tick = sink.tick
                start = time.perf_counter_ns()
                for value in range(per_round):
                    tick(value)
                last_post = time.perf_counter_ns()
                counted = sink.count()
                done = time.perf_counter_ns()
                posted += per_round
                total += per_round * (per_round - 1) // 2
                post_us.append((last_post - start) / per_round / 1000.0 / factor)
                barrier_us.append((done - last_post) / 1000.0 / factor)
                attempted += 1
                if counted != (posted, total):
                    failed += 1
            metrics["core.post_us"] = median(post_us)
            metrics["core.barrier_us"] = median(barrier_us)
            cluster = runtime.metrics_snapshot()["cluster"]
            batches = cluster["po.batches"]["value"]
            metrics["core.po_batches"] = float(batches)
            metrics["core.po_singles"] = float(cluster["po.singles"]["value"])
            metrics["core.calls_per_batch"] = posted / batches if batches else 0.0
            sink.parc_release()

    return CoreRung(metrics, core_handler_us), captured, attempted, failed


# -- serialization --------------------------------------------------------------


def serialization_rung(scale: float, captured: dict, host: Host) -> CodecRung:
    """Codec cost of the captured messages, both directions of one call.

    ``encode_*`` is ``dumps(call) + dumps(reply)`` and ``decode_*`` is
    ``loads`` of both: the four codec operations one round trip pays,
    two on each side of the wire.
    """
    formatter = FastBinaryFormatter()
    metrics: dict[str, float] = {}
    parts: dict[str, float] = {}
    reply_sizes: dict[str, int] = {}
    for key, iters in (("small", _iters(2000, scale)), ("bulk", _iters(60, scale))):
        call, reply = captured[key]
        call_bytes, reply_bytes = formatter.dumps(call), formatter.dumps(reply)
        if formatter.loads(call_bytes) != call or formatter.loads(reply_bytes) != reply:
            raise RuntimeError(f"{key} message does not survive the codec")
        parts[f"enc_call_{key}"] = time_op(lambda: formatter.dumps(call), iters, host)
        parts[f"enc_reply_{key}"] = time_op(lambda: formatter.dumps(reply), iters, host)
        parts[f"dec_call_{key}"] = time_op(lambda: formatter.loads(call_bytes), iters, host)
        parts[f"dec_reply_{key}"] = time_op(lambda: formatter.loads(reply_bytes), iters, host)
        metrics[f"serialization.encode_{key}_us"] = (
            parts[f"enc_call_{key}"] + parts[f"enc_reply_{key}"]
        )
        metrics[f"serialization.decode_{key}_us"] = (
            parts[f"dec_call_{key}"] + parts[f"dec_reply_{key}"]
        )
        metrics[f"serialization.request_bytes_{key}"] = float(len(call_bytes))
        reply_sizes[key] = len(reply_bytes)

    batch_call, _reply = captured["batch"]
    metrics["serialization.batch32_bytes"] = float(len(formatter.dumps(batch_call)))
    rows = [((value,), {}) for value in range(BATCH_CALLS)]
    plan = method_column_plan(objects.Counter.tick)
    columns = pack_columns(rows, plan)
    if columns is None or unpack_columns(BATCH_CALLS, columns) != rows:
        raise RuntimeError("batch does not survive columnar packing")
    iters = _iters(2000, scale)
    metrics["serialization.pack_batch32_us"] = time_op(
        lambda: pack_columns(rows, plan), iters, host
    )
    metrics["serialization.unpack_batch32_us"] = time_op(
        lambda: unpack_columns(BATCH_CALLS, columns), iters, host
    )
    return CodecRung(
        metrics,
        reply_sizes,
        client_small_us=parts["enc_call_small"] + parts["dec_reply_small"],
    )


# -- nio: the raw-socket floor --------------------------------------------------


def nio_rung(scale: float, request_bytes: int, reply_bytes: int, host: Host) -> dict:
    """Round trip of hand-framed buffers of the small message's sizes."""
    rounds = _iters(3000, scale)
    warmup = rounds // 10
    server = ServerSocketChannel.open().bind(("127.0.0.1", 0))
    failures: list[BaseException] = []

    def serve() -> None:
        try:
            with server.accept() as peer:
                inbound = ByteBuffer.allocate(request_bytes)
                outbound = ByteBuffer.wrap(bytes(reply_bytes))
                for _ in range(rounds + warmup):
                    inbound.clear()
                    peer.read_fully(inbound)
                    outbound.rewind()
                    peer.write_fully(outbound)
        except BaseException as exc:  # noqa: BLE001 - reraised by the caller
            failures.append(exc)

    thread = threading.Thread(target=serve, name="parcbench-nio", daemon=True)
    thread.start()
    try:
        with SocketChannel.open(server.local_address) as client:
            outbound = ByteBuffer.wrap(bytes(request_bytes))
            inbound = ByteBuffer.allocate(reply_bytes)

            def round_trip() -> None:
                outbound.rewind()
                client.write_fully(outbound)
                inbound.clear()
                client.read_fully(inbound)

            rtt = time_round_trips(round_trip, rounds, warmup, host)
    finally:
        thread.join(timeout=10.0)
        server.close()
    if failures:
        raise failures[0]
    return {"nio.socket_rtt_small_us": rtt}


# -- channels: framing and the three byte pipes --------------------------------


def frame_rung(scale: float, sizes: dict[str, int], host: Host) -> dict:
    """Frame build + write, then read + parse, over a socketpair.

    One thread does both ends, so this is framing and two syscalls with
    no thread hand-off; the socket buffers are sized to hold one frame.
    """
    left, right = socket.socketpair()
    metrics = {}
    try:
        for sock in (left, right):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _FRAME_SOCKET_BUFFER)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _FRAME_SOCKET_BUFFER)
            sock.settimeout(_FRAME_SOCKET_TIMEOUT_S)
        receive_buffer = bytearray()
        headers = {"content-type": FastBinaryFormatter.content_type}
        for key, iters in (("small", _iters(2000, scale)), ("bulk", _iters(60, scale))):
            body = bytes(sizes[key])

            def one_frame() -> None:
                payload = encode_request("auto/implementationobject-1", headers, body)
                write_frame_parts(left, [payload])
                _flags, view = read_frame_into(right, receive_buffer)
                try:
                    _path, _headers, got = decode_request_view(view)
                    if len(got) != len(body):
                        raise RuntimeError("frame body changed length")
                    got.release()
                finally:
                    view.release()

            metrics[f"channels.frame_{key}_us"] = time_op(one_frame, iters, host)
    finally:
        left.close()
        right.close()
    return metrics


def channel_rtt(kind: str, request_bytes: int, reply_bytes: int, count: int, host: Host) -> float:
    """Median microseconds of a ``round_trip`` byte echo over *kind*.

    The server is a bare ``listen`` handler — no remoting host — that
    answers every request with a pre-encoded reply of *reply_bytes*.
    """
    server, client = channels.create(kind), channels.create(kind)
    reply = client.formatter.dumps(bytes(reply_bytes))
    message = bytes(request_bytes)

    def handler(path, body, headers):  # type: ignore[no-untyped-def]
        return reply

    authority = "127.0.0.1:0" if kind in ("tcp", "aio") else "auto"
    binding = server.listen(authority, handler)
    try:
        def round_trip() -> None:
            got = client.round_trip(binding.authority, "bench", message)
            if len(got) != reply_bytes:
                raise RuntimeError(f"{kind} echo returned {len(got)} bytes")

        return time_round_trips(round_trip, count, max(5, count // 10), host)
    finally:
        client.close()
        binding.close()
        server.close()


def pipes_rung(scale: float, kinds: tuple[str, ...], sizes: dict, replies: dict, host: Host) -> dict:
    """``<kind>.rtt_small_us`` / ``<kind>.rtt_bulk_us`` for each pipe."""
    metrics = {}
    for kind in kinds:
        prefix = "channels.tcp_" if kind == "tcp" else f"{kind}."
        for key, count in (("small", _iters(1500, scale)), ("bulk", _iters(120, scale))):
            metrics[f"{prefix}rtt_{key}_us"] = channel_rtt(
                kind, sizes[key], replies[key], count, host
            )
    return metrics


# -- remoting: proxy echo through a RemotingHost --------------------------------


class _StampedEchoServer(MarshalByRefObject):
    def echo(self, values):  # type: ignore[no-untyped-def]
        objects.user_stamps.append(time.perf_counter_ns())
        return values


def remoting_rung(scale: float, recorder: SpanRecorder, host: Host) -> tuple[dict, int, int]:
    """Remoting proxy echo over span-recording tcp channels."""
    small = array("i", range(SMALL_INTS))
    bulk = array("i", range(BULK_INTS))
    n_small, n_bulk = _iters(1500, scale), _iters(120, scale)
    server_channel = SpanChannel(TcpChannel(), recorder)
    client_channel = SpanChannel(TcpChannel(), recorder)
    server = RemotingHost(name="parcbench-server", services=ChannelServices())
    binding = server.listen(server_channel, "127.0.0.1:0")
    server.register_well_known(
        _StampedEchoServer, "echo", WellKnownObjectMode.SINGLETON
    )
    client_services = ChannelServices()
    client_services.register_channel(client_channel)
    client = RemotingHost(name="parcbench-client", services=client_services)
    failed = 0
    try:
        proxy = client.get_object(f"tcp://{binding.authority}/echo")
        for _ in range(n_small // 10):
            proxy.echo(small)
        objects.user_stamps.clear()
        failed += _traced_calls(recorder, proxy.echo, small, n_small, host)
        _attach_user_stamps(recorder)
        spans = _span_medians(recorder)

        def bulk_call() -> None:
            nonlocal failed
            if proxy.echo(bulk) != bulk:
                failed += 1

        bulk_rtt = time_round_trips(bulk_call, n_bulk, max(5, n_bulk // 10), host)
        objects.user_stamps.clear()
    finally:
        client.close()
        server.close()
        client_channel.close()
        server_channel.close()
    metrics = {
        "remoting.rtt_small_us": spans["op"],
        "remoting.rtt_bulk_us": bulk_rtt,
        "remoting.client_self_us": spans["above"],
        "remoting.wire_self_us": spans["wire"],
        "remoting.server_self_us": spans["handler"],
    }
    return metrics, n_small + n_bulk, failed
