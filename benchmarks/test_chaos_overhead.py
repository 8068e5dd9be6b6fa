"""CHAOS — happy-path overhead of the fault-injection layer.

The chaos substrate is meant to live in CI, wrapped around every test
cluster; that only works if the zero-fault path is close to free.  Each
interposed call costs one seeded RNG draw and a counter bump
(`FaultyChannel`) on top of a real localhost round trip, so the wrapper
cost should vanish into transport noise.

The guardrail: single-caller remoting ping-pong through a zero-fault
`chaos+tcp` channel must stay within 10% of bare tcp throughput.
"""

from __future__ import annotations

from repro.benchlib.pingpong import live_concurrent_pingpong
from repro.benchlib.tables import format_table

N_INTS = 16
CALLS = 1500
TRIALS = 3
MAX_OVERHEAD = 0.10

KINDS = ("tcp", "chaos+tcp")


def _throughput_by_kind() -> dict[str, float]:
    """Best-of-N calls/s per channel stack (max defeats scheduler noise)."""
    return {
        kind: max(
            live_concurrent_pingpong(N_INTS, 1, CALLS, kind)
            for _ in range(TRIALS)
        )
        for kind in KINDS
    }


def test_zero_fault_wrappers_cost_under_ten_percent(benchmark):
    rates = benchmark.pedantic(_throughput_by_kind, rounds=1, iterations=1)
    bare = rates["tcp"]
    print()
    print(
        format_table(
            ["stack", "calls/s", "vs tcp"],
            [
                [kind, round(rate), round(rate / bare, 3)]
                for kind, rate in rates.items()
            ],
            title="CHAOS — zero-fault wrapper overhead (localhost ping-pong)",
        )
    )
    overhead = 1.0 - rates["chaos+tcp"] / bare
    assert overhead < MAX_OVERHEAD, (
        f"chaos+tcp costs {overhead:.1%} of bare tcp throughput on the "
        f"happy path; the guardrail is {MAX_OVERHEAD:.0%}"
    )
