"""ABL-CHAN — channel/formatter choice under the SCOOPP runtime.

The paper measures channels with ping-pong (Fig. 8); this ablation runs
the *full SCOOPP stack* — PO → aggregation → factory → IO — over each
channel configuration and counts the real wire bytes, comparing binary
and SOAP encodings of identical workloads.  Correctness is asserted for
every configuration; byte ratios are the measured shape.
"""

from __future__ import annotations

import repro.core as parc
from repro.apps.primes import PrimeServer, sieve
from repro.benchlib.tables import format_table
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.remoting.messages import CallMessage
from repro.serialization import BinaryFormatter, SoapFormatter

LIMIT = 400
BATCH = 25


def run_farm_over(channel_kind: str) -> int:
    parc.init(
        ParcConfig(
            nodes=2,
            channel=channel_kind,
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=4)),
        )
    )
    try:
        servers = [parc.new(PrimeServer) for _ in range(2)]
        chunk = []
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


def message_size_rows() -> list[tuple[str, int, int]]:
    """Encoded sizes of the same SCOOPP protocol messages, per formatter."""
    rows = []
    batch_args = ([list(range(2, 2 + BATCH))], {})
    messages = {
        "enqueue_batch (25 candidates)": CallMessage(
            uri="auto/x", method="enqueue_batch",
            args=([("process", 4, None, [batch_args] * 4)],),
        ),
        "invoke count()": CallMessage(uri="auto/x", method="invoke",
                                      args=("count", (), {})),
    }
    binary = BinaryFormatter()
    soap = SoapFormatter()
    for label, message in messages.items():
        rows.append(
            (label, len(binary.dumps(message)), len(soap.dumps(message)))
        )
    return rows


def test_abl_chan_correct_over_all_channels(benchmark):
    expected = len(sieve(LIMIT - 1))

    def run_both():
        return {
            "loopback": run_farm_over("loopback"),
            "tcp": run_farm_over("tcp"),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert results["loopback"] == expected
    assert results["tcp"] == expected


def test_abl_chan_soap_overhead_on_protocol_messages(benchmark):
    rows = benchmark(message_size_rows)
    for _label, binary_size, soap_size in rows:
        assert soap_size > binary_size * 1.5


def test_abl_chan_print_table(benchmark):
    rows = benchmark(message_size_rows)
    print()
    print(
        format_table(
            ["SCOOPP protocol message", "binary bytes", "SOAP bytes",
             "ratio"],
            [
                [label, binary_size, soap_size,
                 round(soap_size / binary_size, 2)]
                for label, binary_size, soap_size in rows
            ],
            title="ABL-CHAN — the same runtime messages under both "
            "formatters",
        )
    )
