"""The traced run: every per-layer metric, from one pass.

Two halves.  The in-process ladder (:mod:`ladder`) times one layer at a
time with spans recorded around public calls.  The cluster half re-runs
short versions of the real workloads on worker processes — the same
code as the untraced run, a tenth of the work — for the numbers only
real processes have: boot time, the process hop, grain create/release
cost, the farm's efficiency, which side of the wire pays the CPU, and
what the runtime's own telemetry costs when it is switched on.
"""

from __future__ import annotations

import os

import harness
import ladder
import measure
import workloads
from spans import SpanRecorder, write_chrome_trace

#: Share of the untraced run's work each short cluster run does.
CLUSTER_SHARE = 0.1

#: Host readings the pinned ladder rungs take on one core before they
#: move to the next.
PROBES_PER_CORE = 8


def _short_run(name: str, seed: int, seconds: float, smoke: bool, telemetry: bool = False):  # type: ignore[no-untyped-def]
    plan = workloads.plan(name, seconds * CLUSTER_SHARE, smoke)
    return harness.run_workload(plan, seed, seconds, boots=1, telemetry=telemetry)


def ladder_half(scale: float, recorders: dict[str, SpanRecorder]) -> tuple[dict, int, int]:
    """All in-process rungs; returns ``(metrics, attempted, failed)``."""
    rotation = harness.CoreRotation()
    probe = measure.HostProbe()
    pids = (os.getpid(), probe.pid)
    readings = 0

    # Client and server threads share one core, as the pinned workloads'
    # processes do, and move to the next core every few readings.
    def host() -> float:
        nonlocal readings
        if readings % PROBES_PER_CORE == 0:
            rotation.next(pids)
        readings += 1
        return probe.factor()

    def host_on_every_core() -> float:
        return probe.factor(rotation.allowed)

    try:
        core, captured, attempted, failed = ladder.core_rung(scale, recorders["core"], host)
        codec = ladder.serialization_rung(scale, captured, host)
        sizes = {
            key: int(codec.metrics[f"serialization.request_bytes_{key}"])
            for key in ("small", "bulk")
        }
        metrics = {**core.metrics, **codec.metrics}
        metrics.update(
            ladder.nio_rung(scale, sizes["small"], codec.reply_bytes["small"], host)
        )
        metrics.update(ladder.frame_rung(scale, sizes, host))
        metrics.update(
            ladder.pipes_rung(scale, ("tcp", "aio"), sizes, codec.reply_bytes, host)
        )
        remoting, calls, wrong = ladder.remoting_rung(scale, recorders["remoting"], host)
        metrics.update(remoting)
        attempted, failed = attempted + calls, failed + wrong
        rotation.restore()
        # shm keys its spin-then-park wait on os.cpu_count(), not on the
        # affinity mask, so on one core it would spin against its own peer.
        metrics.update(
            ladder.pipes_rung(
                scale, ("shm",), sizes, codec.reply_bytes, host_on_every_core
            )
        )
    finally:
        probe.close()
        rotation.restore()

    # core.io_self_us: what the core rung's server handler spends beyond
    # the remoting rung's — the mailbox hand-off and the grain thread's
    # wake-up.
    metrics["core.io_self_us"] = (
        core.handler_us - metrics["remoting.server_self_us"]
    )
    # The parts, each from its own rung, that one in-process PO call is
    # made of (README, "Reconciliation").
    parts = (
        metrics["channels.tcp_rtt_small_us"]
        + codec.client_small_us
        + metrics["remoting.server_self_us"]
        + metrics["core.po_self_us"]
        + metrics["core.io_self_us"]
    )
    metrics["ladder.unattributed_us"] = metrics["core.sync_rtt_us"] - parts
    return metrics, attempted, failed


def cluster_half(runs: dict, traced, name: str, core_rtt_us: float) -> tuple[dict, int, int]:  # type: ignore[no-untyped-def]
    """Per-layer numbers only real processes have.

    *runs* maps workload names to :class:`harness.RunResult` — at least
    ``sync_small``, ``raytracer_farm``, ``grain_churn`` and *name* — and
    *traced* is a ``sync_small`` run with the runtime's telemetry on.
    Returns ``(metrics, attempted, failed)``.
    """
    small, farm, churn = runs["sync_small"], runs["raytracer_farm"], runs["grain_churn"]
    every = [small, farm, churn, traced]
    if runs[name] not in every:
        every.append(runs[name])

    def scaled(values, tally):  # type: ignore[no-untyped-def]
        """Median of per-segment *values*, each divided by the host
        factor read in front of its segment."""
        return measure.median([v / host for v, host in zip(values, tally.host)])

    metrics: dict[str, float] = {}
    metrics["cluster.boot_s"] = measure.median([b.boot_s for b in small.boots])
    metrics["cluster.first_call_s"] = measure.median(
        [b.first_call_s for b in small.boots]
    )
    metrics["cluster.new_us"] = scaled(churn.parallel.phases["new_us"], churn.parallel)
    metrics["cluster.release_us"] = scaled(
        churn.parallel.phases["release_us"], churn.parallel
    )
    # stats()["ios"] only ever grows (README, trap 3), so this is the
    # number of grains the last boot created, not the number still alive.
    metrics["cluster.live_ios_end"] = float(
        sum(row["ios"] for row in churn.stats_rows)
    )
    small_blocks = harness.block_medians(small)
    rtt_us = small_blocks["rtt_p50_us"]
    metrics["cluster.process_hop_us"] = rtt_us - core_rtt_us
    latencies = small.parallel.latencies_ns
    tail = measure.tail_percentile(latencies)
    # Read off the raw samples: a tail is what the caller saw, host
    # weather included.  Below 1000 samples (smoke) there is no p99 to
    # report: say so with the median rather than pass noise off as one.
    metrics["client.rtt_p99_us"] = (
        measure.percentile(sorted(latencies), 99.0) / 1000.0
        if tail is not None and tail[0] >= 99.0
        else small_blocks["raw_rtt_p50_us"]
    )
    metrics["client.rtt_samples"] = float(len(latencies))
    metrics["flow.sheds"] = float(sum(run.sheds for run in every))

    seq_frame_s = scaled(farm.sequential.seconds, farm.parallel)
    metrics["apps.seq_frame_s"] = seq_frame_s
    metrics["apps.render_line_us"] = seq_frame_s / farm.plan.frame_size * 1e6
    metrics["apps.farm_efficiency"] = harness.block_medians(farm)[
        "speedup_vs_seq"
    ] / min(harness.FARM_PROCESSORS, os.cpu_count() or 1)

    untraced_rate = small_blocks["ops_per_s"]
    traced_rate = harness.block_medians(traced)["ops_per_s"]
    metrics["telemetry.traced_overhead_pct"] = (
        100.0 * (untraced_rate - traced_rate) / untraced_rate
    )

    # Unscaled totals over the whole run: the two shares must add up to
    # what the run cost on this host.
    named = runs[name].parallel
    driver_s, workers_s = map(sum, zip(*named.cpu_s))
    ops = sum(named.ops)
    metrics["driver.cpu_us_per_op"] = driver_s * 1e6 / ops
    metrics["workers.cpu_us_per_op"] = workers_s * 1e6 / ops

    attempted = sum(r.parallel.attempted + r.sequential.attempted for r in every)
    failed = sum(r.parallel.failed + r.sequential.failed for r in every)
    return metrics, attempted, failed


def run(names, seed: int, seconds: float, smoke: bool, out_dir: str, full_runs=None):  # type: ignore[no-untyped-def]
    """The traced pass for each of *names*.

    Returns ``({name: (metrics, attempted, failed)}, trace_path)``.  The
    ladder and the telemetry-on run are made once.  The real-process
    runs the cluster half reads are *full_runs* — the untraced runs the
    caller has just made, ``{name: RunResult}`` — or, for what that
    lacks, short runs made here.
    """
    scale = seconds / workloads.REFERENCE_SECONDS
    if smoke:
        scale /= workloads.SMOKE_DIVISOR / 10
    recorders = {"core": SpanRecorder(), "remoting": SpanRecorder()}
    rungs, attempted, failed = ladder_half(scale, recorders)
    runs = dict(full_runs or {})
    for needed in ("sync_small", "raytracer_farm", "grain_churn", *names):
        if needed not in runs:
            runs[needed] = _short_run(needed, seed, seconds, smoke)
    traced = _short_run("sync_small", seed, seconds, smoke, telemetry=True)
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-seed{seed}.json")
    write_chrome_trace(trace_path, recorders)
    passes = {}
    for name in names:
        cluster, calls, wrong = cluster_half(
            runs, traced, name, rungs["core.sync_rtt_us"]
        )
        passes[name] = (
            dict(sorted({**rungs, **cluster}.items())),
            attempted + calls,
            failed + wrong,
        )
    return passes, trace_path
