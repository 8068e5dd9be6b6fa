"""ABL-POOL — thread-pool throttling ablation (paper §4).

"The Mono implementation uses a thread pool to reduce the thread creation
cost; however limiting the number of running threads in parallel
applications reduces the overlap among computation and communication and
also produces starvation in some application threads."

The farm simulator sweeps the pool cap for the Fig. 9 ray-tracer farm at
6 processors: an uncapped pool reaches all 6 workers immediately; small
caps serialize dispatch until thread injection catches up.

The live half runs a real executor pool (``Executor``) at
its cap.  Runs that wait where the runtime can see it — a nested
synchronous call, inside ``blocking()`` — all finish promptly; runs
blocked where it cannot — a user barrier — finish only through the
starvation check's thread starts, one per ``STARVATION_CHECK_S``: the
paper's §4 starvation, measured, and its bound.
"""

from __future__ import annotations

import threading
import time

from repro.benchlib import simulate_farm
from repro.benchlib.tables import format_table
from repro.executor import STARVATION_CHECK_S, Executor, blocking
from repro.perfmodel import MONO_117_TCP

WORKERS = 6
CHUNKS = [1.7] * 50  # 500 lines / 10 per chunk, 0.17 s/line * 1.0 scale
OUT_BYTES = 144.0
BACK_BYTES = 20_000.0
POOL_CAPS = [1, 2, 4, 6, None]


def pool_rows():
    model = MONO_117_TCP.with_overrides(thread_pool_limit=None)
    rows = []
    for cap in POOL_CAPS:
        result = simulate_farm(
            WORKERS, CHUNKS, model, OUT_BYTES, BACK_BYTES, pool_limit=cap
        )
        rows.append(
            (
                "uncapped" if cap is None else cap,
                round(result.makespan_s, 2),
                round(result.efficiency, 3),
            )
        )
    return rows


def test_abl_pool_smaller_cap_never_faster(benchmark):
    rows = benchmark(pool_rows)
    times = [time_s for _cap, time_s, _eff in rows]
    assert times == sorted(times, reverse=True)


def test_abl_pool_cap_one_starves(benchmark):
    rows = benchmark(pool_rows)
    by_cap = {cap: time_s for cap, time_s, _eff in rows}
    assert by_cap[1] > by_cap["uncapped"] * 1.1


def test_abl_pool_efficiency_degrades(benchmark):
    rows = benchmark(pool_rows)
    efficiencies = [eff for _cap, _t, eff in rows]
    assert efficiencies == sorted(efficiencies)
    assert efficiencies[-1] > 0.9  # uncapped farm is near-perfect


def test_abl_pool_print_table(benchmark):
    rows = benchmark(pool_rows)
    print()
    print(
        format_table(
            ["pool cap", "makespan (s)", "efficiency"],
            [list(row) for row in rows],
            title=(
                f"ABL-POOL — Fig. 9 farm at {WORKERS} workers, thread-pool "
                "cap sweep (Mono model)"
            ),
        )
    )


# -- live: the real executor at its cap -------------------------------------

#: Runs per live scenario: several times any cap a test host gives.
LIVE_RUNS = 24


def nested_calls(managed: bool) -> tuple[float, dict]:
    """LIVE_RUNS runs, each waiting for an inner run it submits — a
    grain's nested synchronous call; inside ``blocking()`` if *managed*.
    Returns (seconds until all finished, the pool's stats)."""
    pool = Executor()
    finished = threading.Semaphore(0)

    def outer() -> None:
        replied = threading.Event()
        pool.submit(replied.set)
        if managed:
            with blocking():
                assert replied.wait(timeout=60.0)
        else:
            assert replied.wait(timeout=60.0)
        finished.release()

    started = time.perf_counter()
    for _ in range(LIVE_RUNS):
        pool.submit(outer)
    for _ in range(LIVE_RUNS):
        assert finished.acquire(timeout=60.0)
    return time.perf_counter() - started, pool.stats()


def barrier_runs() -> tuple[float, dict]:
    """LIVE_RUNS runs blocked at one user barrier, which the runtime
    cannot see.  Returns (seconds until all passed, the pool's stats)."""
    pool = Executor()
    barrier = threading.Barrier(LIVE_RUNS, timeout=60.0)
    finished = threading.Semaphore(0)

    def meet() -> None:
        barrier.wait()
        finished.release()

    started = time.perf_counter()
    for _ in range(LIVE_RUNS):
        pool.submit(meet)
    for _ in range(LIVE_RUNS):
        assert finished.acquire(timeout=60.0)
    return time.perf_counter() - started, pool.stats()


def test_abl_pool_live_nested_calls_through_blocking_finish_promptly():
    elapsed, stats = nested_calls(managed=True)
    print(
        f"\nABL-POOL live: {LIVE_RUNS} nested sync calls through blocking() "
        f"at cap {stats['cap']}: {elapsed * 1000:.1f} ms, starvation starts "
        f"{stats['starvation_starts']}"
    )
    assert stats["starvation_starts"] == 0
    # Well inside what the starvation check alone would take.
    assert elapsed < (LIVE_RUNS - stats["cap"]) * STARVATION_CHECK_S / 2


def test_abl_pool_live_uncompensated_waits_starve_until_the_check():
    elapsed, stats = nested_calls(managed=False)
    starts = stats["starvation_starts"]
    print(
        f"\nABL-POOL live: {LIVE_RUNS} nested sync calls without blocking() "
        f"at cap {stats['cap']}: {elapsed * 1000:.1f} ms, starvation starts "
        f"{starts}"
    )
    # Every outer run holds its thread while its inner run queues behind
    # the other outer runs: only the check's starts get them through.
    assert starts >= LIVE_RUNS - stats["cap"]
    assert elapsed >= (LIVE_RUNS - stats["cap"]) * STARVATION_CHECK_S * 0.9


def test_abl_pool_live_barrier_finishes_through_starvation_starts():
    elapsed, stats = barrier_runs()
    expected = (LIVE_RUNS - stats["cap"]) * STARVATION_CHECK_S
    print(
        f"\nABL-POOL live: {LIVE_RUNS} runs at a user barrier, cap "
        f"{stats['cap']}: {elapsed * 1000:.1f} ms against (N - cap) x "
        f"interval = {expected * 1000:.0f} ms, starvation starts "
        f"{stats['starvation_starts']}"
    )
    assert stats["starvation_starts"] == LIVE_RUNS - stats["cap"]
    assert expected * 0.9 <= elapsed <= expected * 3 + 1.0
