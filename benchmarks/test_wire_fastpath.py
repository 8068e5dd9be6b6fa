"""WIRE — what the one wire path costs and saves, on this machine.

tcp, shm and aio share one framed exchange
(:mod:`repro.channels.exchange`): compiled codecs, requests built in
one buffer with the header patched in place and large payloads sent
from their own memory, replies decoded from a view of the frame.  There is no second path to compare it with, so this
file measures rather than races:

* :func:`pingpong_rate` prices a whole ``round_trip`` — encode, frame,
  send, server read, dispatch, respond, client decode — at a payload
  size; ``record.py`` records it per transport into ``BENCH_wire.json``
  (``tcp_fast_rt_s`` / ``aio_fast_rt_s`` keep their names so older
  recordings stay comparable) and guards ``shm_vs_tcp_64k``;
* the columnar ``processN`` aggregate encodes a 64-call batch >= 1.5x
  smaller than the row form (method, trace header and schema once, one
  contiguous column per parameter) — guarded as
  ``columnar_size_64_calls``;
* the prime farm over tcp and aio counts the primes the sequential
  sieve counts.

Wire *speed* regressions are held end to end by parcbench's
``sync_small`` and ``bulk_echo`` and per layer by its
``channels.tcp_rtt_*_us`` / ``aio.rtt_*_us`` rows.
"""

from __future__ import annotations

import time

import repro.core as parc
from repro.aio import AioTcpChannel
from repro.apps.primes import PrimeServer, sieve
from repro.benchlib.tables import format_table
from repro.channels.tcp import TcpChannel
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.remoting.messages import CallMessage
from repro.serialization import BinaryFormatter
from repro.serialization.codec import pack_columns

PAYLOAD_BYTES = 64 * 1024
ROUNDS = 500
TRIALS = 6


def _echo(path, body, headers):  # type: ignore[no-untyped-def]
    # body is a memoryview into the server's receive buffer.
    return bytes(body)


def pingpong_rate(
    make_channel, payload_size: int = PAYLOAD_BYTES, trials: int = TRIALS
) -> float:
    """Round trips/second through ``round_trip``, best of *trials* runs.

    Client and server are two channels of the same kind, so the rate
    prices the whole path: encode, frame, send, server read, dispatch,
    respond, client decode.
    """
    server = make_channel()
    client = make_channel()
    binding = server.listen("127.0.0.1:0", _echo)
    message = CallMessage(
        uri="pingpong", method="echo", args=(bytes(payload_size),)
    )
    try:
        client.round_trip(binding.authority, "pingpong", message)  # warm up
        best = float("inf")
        for _ in range(trials):
            started = time.perf_counter()
            for _ in range(ROUNDS):
                result = client.round_trip(
                    binding.authority, "pingpong", message
                )
            best = min(best, time.perf_counter() - started)
        assert result.args == message.args
        return ROUNDS / best
    finally:
        client.close()
        binding.close()
        server.close()


def test_pingpong_round_trips_over_tcp_and_aio():
    """The measuring loop itself: every reply checked, a rate reported."""
    for factory in (TcpChannel, AioTcpChannel):
        assert pingpong_rate(factory, payload_size=1024, trials=1) > 0


def columnar_sizes(calls: int = 64) -> tuple[int, int]:
    """Encoded request-body bytes: a rows entry versus a columns entry,
    each the one entry of an ``enqueue_batch`` request."""
    formatter = BinaryFormatter()
    batch = [((index * 0.5, index), {}) for index in range(calls)]
    row_message = CallMessage(
        uri="auto/x",
        method="enqueue_batch",
        args=([("step", calls, None, batch)],),
    )
    columns = pack_columns(batch)
    assert columns is not None
    columnar_message = CallMessage(
        uri="auto/x",
        method="enqueue_batch",
        args=([("step", calls, list(columns), None)],),
    )
    return (
        len(formatter.dumps(row_message)),
        len(formatter.dumps(columnar_message)),
    )


def test_columnar_aggregate_is_smaller(benchmark):
    row_bytes, columnar_bytes = benchmark(columnar_sizes)
    ratio = row_bytes / columnar_bytes
    print()
    print(
        format_table(
            ["form", "bytes"],
            [
                ["row batch (64 calls)", row_bytes],
                ["columnar aggregate", columnar_bytes],
                ["ratio", round(ratio, 2)],
            ],
            title="WIRE-FAST — processN aggregate encoding, 64 calls",
        )
    )
    assert ratio >= 1.5, (
        f"columnar aggregate is only {ratio:.2f}x smaller (need >= 1.5x)"
    )


LIMIT = 400
BATCH = 25


def run_farm(channel: str) -> int:
    """The ABL-CHAN prime farm over *channel*."""
    parc.init(
        ParcConfig(
            nodes=2,
            channel=channel,
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=4)),
        )
    )
    try:
        servers = [parc.new(PrimeServer) for _ in range(2)]
        chunk: list[int] = []
        target = 0
        for candidate in range(2, LIMIT):
            chunk.append(candidate)
            if len(chunk) >= BATCH:
                servers[target % 2].process(chunk)
                chunk = []
                target += 1
        if chunk:
            servers[target % 2].process(chunk)
        total = sum(server.count() for server in servers)
        for server in servers:
            server.parc_release()
        return total
    finally:
        parc.shutdown()


def test_farm_correct_over_tcp_and_aio(benchmark):
    expected = len(sieve(LIMIT - 1))

    def run_all():
        return {channel: run_farm(channel) for channel in ("tcp", "aio")}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert all(total == expected for total in results.values()), results
