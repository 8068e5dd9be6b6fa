"""ABL-AGG — method-call aggregation ablation (paper §3.1 / [9]).

"method call aggregation: (delay and) combine a series of asynchronous
method calls into a single aggregate call message; this reduces message
overheads and per-message latency."

Two measurements:

* **message counting** (exact, deterministic): a grain posting N tiny
  calls ships ~N/max_calls aggregate messages — the mechanism itself;
* **modeled run time**: pricing the message counts with the Mono model
  shows the latency the paper's aggregation removes.
"""

from __future__ import annotations

from repro.benchlib.tables import format_table
from repro.core.impl import ImplementationObject
from repro.core.proxy_object import RemoteGrain
from repro.perfmodel import MONO_117_TCP

CALLS = 512
MAX_CALLS_SWEEP = [1, 2, 8, 32, 128]


class _Sink:
    def __init__(self):
        self.count = 0

    def tick(self, _value):
        self.count += 1


def aggregation_rows():
    rows = []
    for max_calls in MAX_CALLS_SWEEP:
        sink = _Sink()
        impl = ImplementationObject(sink, "abl.Sink")
        # Long auto-flush: this ablation counts exact batch boundaries.
        grain = RemoteGrain(impl, max_calls=max_calls, flush_after_s=60.0)
        try:
            for index in range(CALLS):
                grain.post("tick", (index,), {})
            grain.drain()
            assert sink.count == CALLS  # nothing lost
            messages = grain.batches + grain.singles
            modeled_s = messages * MONO_117_TCP.one_way_latency_s
            rows.append((max_calls, messages, modeled_s * 1e3))
        finally:
            grain.dispose()
    return rows


def test_abl_agg_message_counts_shrink(benchmark):
    rows = benchmark(aggregation_rows)
    messages = [m for _mc, m, _t in rows]
    assert messages[0] == CALLS  # no aggregation: one message per call
    assert messages == sorted(messages, reverse=True)
    by_max_calls = dict((mc, m) for mc, m, _t in rows)
    # Aggregation factor k cuts messages to ~N/k.
    assert by_max_calls[32] <= CALLS // 32 + 2
    assert by_max_calls[128] <= CALLS // 128 + 2


def test_abl_agg_latency_amortized(benchmark):
    rows = benchmark(aggregation_rows)
    modeled = {mc: t for mc, _m, t in rows}
    assert modeled[1] / modeled[128] > 50  # two orders of magnitude


def test_abl_agg_print_table(benchmark):
    rows = benchmark(aggregation_rows)
    print()
    print(
        format_table(
            ["max_calls", "messages", "modeled msg latency (ms)"],
            [[mc, m, round(t, 2)] for mc, m, t in rows],
            title=(
                f"ABL-AGG — {CALLS} async calls through one PO "
                "(Mono model: 520us per message)"
            ),
        )
    )
