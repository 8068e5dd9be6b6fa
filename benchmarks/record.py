"""Record the benchmark families' numbers to per-suite JSON artifacts.

Usage::

    PYTHONPATH=src python benchmarks/record.py [suite] [output.json]
    PYTHONPATH=src python benchmarks/record.py all
    PYTHONPATH=src python benchmarks/record.py compare COMMITTED FRESH

Suites (each maps to one ``benchmarks/test_*`` family and one committed
artifact): ``wire`` (the default) -> ``BENCH_wire.json``, ``overload``
-> ``BENCH_overload.json``, ``sched`` -> ``BENCH_sched.json``,
``autotune`` -> ``BENCH_autotune.json``.  ``all`` records every suite to
its default path.  Absolute rates are this machine's; the
``guarded_ratios`` block in each document is the comparable shape.
``cpus`` is recorded because several ratios are scheduling-bound: with
one CPU a spin path never runs and every round trip costs two context
switches — only multi-core hosts can show the shm speedup.

* ``wire``: ping-pong round trips per second over tcp and aio at
  several payload sizes (``tcp_fast_rt_s`` / ``aio_fast_rt_s``: the
  names predate the removal of the legacy path and are kept so old
  recordings stay comparable), the same payloads over the shm
  channel, the columnar-versus-row aggregate encoding sizes, and the
  TAB-LAT latency table (modeled one-way latencies and live localhost
  round trips per stack).
* ``overload``: admitted/shed latency percentiles for a saturated
  bounded mailbox, and the elastic scale-out/in cycle's call
  accounting.
* ``sched``: makespans for the Zipf-skewed placement bench under static
  round-robin, the perfect-knowledge LPT oracle, and the adaptive
  work-stealing scheduler, plus the migration accounting and the 10k
  grain scale run's call accounting.
* ``autotune``: returnN reply bytes versus per-call replies, call_many
  versus per-call round-trip throughput over live tcp, and the
  telemetry-fed autotuner's converged ``max_calls`` against the static
  sweep's knee.

``compare`` reads two recordings of the same suite — the committed
artifact and a fresh one — and fails (exit 1) when a guarded ratio
regressed by more than ``TOLERANCE``.  Timing-derived ratios are
hardware-bound, so when the two documents disagree on ``cpus`` those
only warn; byte-size and call-accounting ratios hold on any machine and
always gate.
"""

from __future__ import annotations

import json
import os
import platform
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_shm_backplane import pingpong_rate as shm_pingpong_rate
from test_wire_fastpath import PAYLOAD_BYTES, columnar_sizes, pingpong_rate

from repro.aio import AioTcpChannel
from repro.benchlib import (
    live_pingpong_mpi,
    live_pingpong_nio,
    live_pingpong_remoting,
    live_pingpong_rmi,
)
from repro.channels.tcp import TcpChannel
from repro.perfmodel import JAVA_NIO, JAVA_RMI, MONO_117_TCP, MPI_MPICH
from repro.shm import ShmChannel

SIZES = (1024, 16 * 1024, PAYLOAD_BYTES)

LATENCY_ROUNDS = 30
LATENCY_N_INTS = 64


def collect_latency_table() -> dict:
    """The TAB-LAT rows: modeled one-way latencies + live round trips."""
    return {
        "modeled_one_way_s": {
            "mpi": MPI_MPICH.one_way_latency_s,
            "java_rmi": JAVA_RMI.one_way_latency_s,
            "mono_tcp": MONO_117_TCP.one_way_latency_s,
            "java_nio": JAVA_NIO.one_way_latency_s,
        },
        "live_round_trip_s": {
            "mpi_threads": live_pingpong_mpi(LATENCY_N_INTS, LATENCY_ROUNDS),
            "nio_sockets": live_pingpong_nio(LATENCY_N_INTS, LATENCY_ROUNDS),
            "rmi_sockets": live_pingpong_rmi(LATENCY_N_INTS, LATENCY_ROUNDS),
            "remoting_tcp": live_pingpong_remoting(
                LATENCY_N_INTS, LATENCY_ROUNDS, "tcp"
            ),
            "remoting_shm": live_pingpong_remoting(
                LATENCY_N_INTS, LATENCY_ROUNDS, "shm"
            ),
            "remoting_http": live_pingpong_remoting(
                LATENCY_N_INTS, LATENCY_ROUNDS, "http"
            ),
        },
        "rounds": LATENCY_ROUNDS,
        "n_ints": LATENCY_N_INTS,
    }


def collect() -> dict:
    pingpong = {}
    for size in SIZES:
        pingpong[str(size)] = {
            "tcp_fast_rt_s": pingpong_rate(TcpChannel, size),
            "aio_fast_rt_s": pingpong_rate(AioTcpChannel, size),
            "shm_rt_s": shm_pingpong_rate(ShmChannel, "auto", size),
        }
    row_bytes, columnar_bytes = columnar_sizes()
    guarded = pingpong[str(PAYLOAD_BYTES)]
    return {
        "benchmark": "wire_fastpath",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "payload_sizes": list(SIZES),
        "pingpong": pingpong,
        "columnar": {
            "calls": 64,
            "row_bytes": row_bytes,
            "columnar_bytes": columnar_bytes,
            "ratio": row_bytes / columnar_bytes,
        },
        "latency_table": collect_latency_table(),
        "guarded_ratios": {
            "shm_vs_tcp_64k": guarded["shm_rt_s"] / guarded["tcp_fast_rt_s"],
            "columnar_size_64_calls": row_bytes / columnar_bytes,
        },
    }


def collect_overload() -> dict:
    from test_overload import (
        CALLERS,
        MAILBOX_DEPTH,
        SERVICE_S,
        _percentile,
        elastic_cycle_stats,
        saturation_latencies,
    )

    saturation = saturation_latencies()
    elastic = elastic_cycle_stats()
    admitted = saturation["admitted"]
    shed = saturation["shed"]
    return {
        "benchmark": "overload",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "saturation": {
            "service_s": SERVICE_S,
            "mailbox_depth": MAILBOX_DEPTH,
            "callers": CALLERS,
            "admitted": len(admitted),
            "shed": len(shed),
            "server_shed": saturation["server_shed"],
            "admitted_p50_s": _percentile(admitted, 0.50),
            "admitted_p99_s": _percentile(admitted, 0.99),
            "shed_p99_s": _percentile(shed, 0.99) if shed else None,
        },
        "elastic_cycle": elastic,
        "guarded_ratios": {
            "elastic_tested_vs_posted": (
                elastic["tested"] / elastic["posted"]
            ),
        },
    }


def collect_sched() -> dict:
    from test_scheduler import (
        AGG_CALLS,
        CALLS_TOTAL,
        GRAINS,
        NODES,
        SCALE_CALLS_TOTAL,
        SCALE_GRAINS,
        WORK_S,
        ZIPF_S,
        run_all,
        run_scale,
    )

    results = run_all()
    adaptive = results["adaptive"]
    scale = run_scale()
    return {
        "benchmark": "sched",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workload": {
            "nodes": NODES,
            "grains": GRAINS,
            "zipf_s": ZIPF_S,
            "calls_total": CALLS_TOTAL,
            "work_s": WORK_S,
            "agg_calls": AGG_CALLS,
        },
        "scenarios": results,
        "scale_10k": {
            "grains": SCALE_GRAINS,
            "calls_target": SCALE_CALLS_TOTAL,
            **scale,
        },
        "guarded_ratios": {
            "adaptive_vs_oracle": (
                adaptive["makespan_s"] / results["oracle"]["makespan_s"]
            ),
            "round_robin_vs_adaptive": (
                results["round_robin"]["makespan_s"]
                / adaptive["makespan_s"]
            ),
            "scale_10k_executed_vs_posted": (
                scale["executed"] / scale["posted"]
            ),
        },
    }


def collect_autotune() -> dict:
    from test_autotune import (
        CALLS,
        SWEEP_CALLS,
        WORK_S,
        convergence_run,
        reply_sizes,
        roundtrip_rates,
    )

    per_call_bytes, batched_bytes = reply_sizes()
    rates = roundtrip_rates()
    convergence = convergence_run()
    return {
        "benchmark": "autotune",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "reply_bytes": {
            "calls": CALLS,
            "per_call_bytes": per_call_bytes,
            "returnn_bytes": batched_bytes,
        },
        "roundtrip_rates": rates,
        "convergence": {
            "work_s": WORK_S,
            "sweep_calls": SWEEP_CALLS,
            **convergence,
        },
        "guarded_ratios": {
            "returnn_reply_bytes_64_calls": per_call_bytes / batched_bytes,
            "callmany_vs_percall_tcp": (
                rates["call_many"] / rates["per_call"]
            ),
            "autotune_vs_best_static": convergence["ratio"],
        },
    }


SUITES = {
    "wire": (collect, "BENCH_wire.json"),
    "overload": (collect_overload, "BENCH_overload.json"),
    "sched": (collect_sched, "BENCH_sched.json"),
    "autotune": (collect_autotune, "BENCH_autotune.json"),
}

#: Maximum relative regression a guarded ratio may show against the
#: committed recording before ``compare`` fails the build.
TOLERANCE = 0.15

#: Ratios where smaller is better (everything else: bigger is better).
LOWER_IS_BETTER = {"adaptive_vs_oracle"}

#: Ratios guarded as "inside a window", not "at least the old value":
#: the autotuner's converged/best-static quotient is correct anywhere
#: within 2x either way, so drift inside the window is not regression.
BOUNDED = {"autotune_vs_best_static": (0.5, 2.0)}

#: Ratios derived from encoded byte sizes or call accounting.  They are
#: identical on any hardware, so they gate even when the committed and
#: fresh recordings come from machines with different ``cpus`` — unlike
#: timing ratios, which only warn across hardware.
HARDWARE_INDEPENDENT = {
    "columnar_size_64_calls",
    "returnn_reply_bytes_64_calls",
    "elastic_tested_vs_posted",
    "scale_10k_executed_vs_posted",
}


def compare(committed_path: str, fresh_path: str) -> int:
    """Fail when *fresh_path*'s guarded ratios regressed vs the artifact."""
    with open(committed_path, encoding="utf-8") as handle:
        committed = json.load(handle)
    with open(fresh_path, encoding="utf-8") as handle:
        fresh = json.load(handle)
    if committed.get("benchmark") != fresh.get("benchmark"):
        print(
            f"cannot compare suites: {committed.get('benchmark')!r} "
            f"({committed_path}) vs {fresh.get('benchmark')!r} ({fresh_path})"
        )
        return 1
    same_hardware = committed.get("cpus") == fresh.get("cpus")
    failures = 0
    print(
        f"compare {committed.get('benchmark')}: {committed_path} "
        f"(cpus={committed.get('cpus')}) vs {fresh_path} "
        f"(cpus={fresh.get('cpus')})"
    )
    for name, old in sorted(committed.get("guarded_ratios", {}).items()):
        new = fresh.get("guarded_ratios", {}).get(name)
        if new is None:
            print(f"  FAIL {name}: missing from {fresh_path}")
            failures += 1
            continue
        if name in BOUNDED:
            low, high = BOUNDED[name]
            if low <= new <= high:
                print(f"  ok   {name}: {new:.2f} within [{low}, {high}]")
            else:
                print(
                    f"  FAIL {name}: {new:.2f} outside [{low}, {high}] "
                    f"(was {old:.2f})"
                )
                failures += 1
            continue
        if name in LOWER_IS_BETTER:
            regressed = new > old * (1.0 + TOLERANCE)
        else:
            regressed = new < old * (1.0 - TOLERANCE)
        if not regressed:
            print(f"  ok   {name}: {new:.2f} (was {old:.2f})")
        elif name in HARDWARE_INDEPENDENT or same_hardware:
            print(
                f"  FAIL {name}: {new:.2f} regressed more than "
                f"{TOLERANCE:.0%} from {old:.2f}"
            )
            failures += 1
        else:
            print(
                f"  warn {name}: {new:.2f} vs {old:.2f}, but the "
                f"recordings disagree on cpus — timing ratio not gated"
            )
    if failures:
        print(f"{failures} guarded ratio(s) regressed")
        return 1
    print("no guarded ratio regressed")
    return 0


def record(suite: str, out_path: str | None = None) -> int:
    collector, default_path = SUITES[suite]
    out_path = out_path or default_path
    document = collector()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")
    for name, value in sorted(document["guarded_ratios"].items()):
        print(f"  {name}: {value:.2f}")
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: record.py compare COMMITTED.json FRESH.json")
            return 2
        return compare(argv[1], argv[2])
    if argv and argv[0] == "all":
        status = 0
        for suite in SUITES:
            status = max(status, record(suite))
        return status
    if argv and argv[0] in SUITES:
        return record(argv[0], argv[1] if len(argv) > 1 else None)
    # Back-compat: a bare output path records the wire suite.
    return record("wire", argv[0] if argv else None)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
