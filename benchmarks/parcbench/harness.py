"""Boots the real runtime and drives the five workloads on it.

Load shape: closed loop, one driver process, one caller thread, two
worker processes over tcp, default knobs apart from the workload's
static grain policy.  Everything goes through public API
(``parc.init`` / ``new`` / PO methods / ``parc_release`` /
``runtime.stats()`` / ``metrics_snapshot()``) and every result is
checked against what :mod:`workloads` says it must be.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import repro.core as parc
from repro.apps.raytracer import checksum, create_scene, farm_render, render
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.telemetry import TelemetryConfig

import measure
import objects
import workloads
from workloads import Plan

WORKER_PROCESSES = 2

#: Imported by every worker at boot: registers the parallel classes.
WORKER_MODULES = ("objects", "repro.apps.raytracer")

#: Cold boots timed per run; ``setup_s`` is their median.
SETUP_BOOTS = 3

#: A run that is this many times over its ``--seconds`` stops at the
#: next block boundary (it must end inside the driver's time limit).
OVERRUN_FACTOR = 4.0

FARM_PROCESSORS = 3
FARM_GRID = 2
FARM_LINES_PER_CHUNK = 4


class BenchmarkError(RuntimeError):
    """The benchmark could not set up what it measures."""


# -- processes ------------------------------------------------------------------


@dataclass
class Processes:
    """The driver and its worker processes, as ``/proc`` sees them."""

    driver: int
    workers: tuple[int, ...]

    @property
    def all(self) -> tuple[int, ...]:
        return (self.driver, *self.workers)

    def cpu_seconds(self) -> tuple[float, float]:
        """(driver, workers) user+system CPU seconds so far."""
        return (
            measure.cpu_seconds(self.driver),
            sum(measure.cpu_seconds(pid) for pid in self.workers),
        )

    def threads(self) -> int:
        return sum(measure.thread_count(pid) for pid in self.all)

    def peak_rss_mb(self) -> float:
        return sum(measure.peak_rss_mb(pid) for pid in self.all)


def pin_threads(pids: tuple[int, ...], cores: list[int]) -> None:
    """Restrict every thread of *pids* to *cores*.

    ``sched_setaffinity`` acts on one thread, so this walks
    ``/proc/<pid>/task``; threads started later inherit the mask of the
    thread that starts them.
    """
    for pid in pids:
        for task in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(task), cores)
            except ProcessLookupError:
                pass  # the thread ended between listdir and here


class CoreRotation:
    """One core at a time, a different one each turn.

    Pinned workloads keep the driver and both workers on a single core
    (no cross-core wake-ups in the numbers).  Which core is quiet
    changes from second to second on a shared host and the cores'
    weather is nearly independent (README, "Steadiness"), so the
    processes move together to the next allowed core at every block
    boundary: a run then sees quiet stretches of every core instead of
    betting on one.
    """

    def __init__(self) -> None:
        self.allowed = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def next(self, pids: tuple[int, ...]) -> int:
        # Highest core first: interrupts and other tenants prefer cpu0.
        core = self.allowed[-1 - self.turn % len(self.allowed)]
        self.turn += 1
        pin_threads(pids, [core])
        return core

    def restore(self) -> None:
        """Give the driver's threads their original mask back."""
        pin_threads((os.getpid(),), self.allowed)


# -- boot -------------------------------------------------------------------------


def runtime_config(max_calls: int = 1, telemetry: bool = False) -> ParcConfig:
    """The configuration a user would write for one driver + two workers."""
    scheduler = None
    if max_calls > 1:
        scheduler = SchedulerConfig(grain=GrainPolicy(max_calls=max_calls))
    return ParcConfig(
        nodes=1,
        channel="tcp",
        worker_processes=WORKER_PROCESSES,
        worker_modules=WORKER_MODULES,
        scheduler=scheduler,
        telemetry=TelemetryConfig(enabled=telemetry),
    )


def place_on_workers(cls: type) -> list:
    """One grain of *cls* on each worker process.

    A custom placement policy instance does not reach worker processes
    (README, trap 2), so this takes what round-robin gives — one grain
    per node — and releases the one that landed in the driver.
    """
    driver = os.getpid()
    kept = []
    for _ in range(1 + WORKER_PROCESSES):
        grain = parc.new(cls)
        if grain.whoami() == driver:
            grain.parc_release()
        else:
            kept.append(grain)
    if len(kept) != WORKER_PROCESSES:
        raise BenchmarkError(
            f"round-robin placed {len(kept)} grains on workers, "
            f"expected {WORKER_PROCESSES}"
        )
    return kept


@dataclass
class Boot:
    runtime: Any
    processes: Processes
    #: ``parc.init`` alone.
    boot_s: float
    #: From ``init`` returning to a verified reply from every worker.
    first_call_s: float

    @property
    def setup_s(self) -> float:
        return self.boot_s + self.first_call_s


def boot(config: ParcConfig) -> Boot:
    """Cold boot, timed to the first verified reply from every worker."""
    started = time.perf_counter()
    runtime = parc.init(config)
    try:
        booted = time.perf_counter()
        probes = place_on_workers(objects.Echo)
        pids = tuple(sorted(probe.whoami() for probe in probes))
        replied = time.perf_counter()
        children = {child.pid for child in multiprocessing.active_children()}
        if len(set(pids)) != WORKER_PROCESSES or not set(pids) <= children:
            raise BenchmarkError(
                f"worker replies came from pids {pids}, children are {children}"
            )
        for probe in probes:
            probe.parc_release()
    except BaseException:
        parc.shutdown()
        raise
    return Boot(
        runtime=runtime,
        processes=Processes(os.getpid(), pids),
        boot_s=booted - started,
        first_call_s=replied - booted,
    )


def shutdown(processes: Processes) -> None:
    """End the session and insist that no worker process outlives it."""
    parc.shutdown()
    alive = [pid for pid in processes.workers if measure.pid_alive(pid)]
    if alive:
        raise BenchmarkError(f"worker processes {alive} survived shutdown()")


# -- timed phase ------------------------------------------------------------------


@dataclass
class Tally:
    """What the segments of one phase add up to."""

    ops: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    #: Every latency sample, for the tail percentile.
    latencies_ns: list[int] = field(default_factory=list)
    #: Median latency of each segment.
    segment_p50_ns: list[float] = field(default_factory=list)
    #: Per segment: (driver, workers) CPU seconds spent on it.
    cpu_s: list[tuple[float, float]] = field(default_factory=list)
    #: Per segment: the host's slow-down factor measured just before it.
    host: list[float] = field(default_factory=list)
    #: Per-segment microseconds per op of named sub-phases (grain_churn's
    #: create and release loops).
    phases: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def rates(self) -> list[float]:
        return measure.segment_rates(self.ops, self.seconds)

    def close_segment(self, ops: int, elapsed_ns: int, first_latency: int) -> None:
        """Book a finished segment whose latencies start at *first_latency*."""
        self.ops.append(ops)
        self.seconds.append(elapsed_ns / 1e9)
        self.segment_p50_ns.append(
            measure.median(self.latencies_ns[first_latency:])
        )


class Workload:
    """One workload: targets to drive, and how to drive one segment.

    ``segment(k, tally, target)`` runs segment *k* against *target* —
    what :meth:`prepare` placed on the workers, or the plain in-driver
    stand-ins of :meth:`local` for the sequential baseline — times
    itself, and counts every result it checked.  ``k = -1`` is the
    untimed warm-up.  ``on_peak`` is called where the segment holds the
    most live grains.
    """

    def __init__(self, plan: Plan, seed: int) -> None:
        self.plan, self.seed = plan, seed

    def prepare(self) -> Any:
        raise NotImplementedError

    def local(self) -> Any:
        raise NotImplementedError

    def segment(self, k: int, tally: Tally, target: Any, on_peak: Callable[[], None]) -> None:
        raise NotImplementedError

    def cleanup(self, target: Any) -> None:
        pass

    def parallel_first(self, k: int) -> bool:
        """Whether segment *k* runs before its sequential twin."""
        return False

    def _count(self, k: int) -> int:
        return self.plan.warmup_ops if k < 0 else self.plan.ops_per_segment


class EchoWorkload(Workload):
    """``sync_small`` and ``bulk_echo``: sync echoes to one worker grain."""

    def __init__(self, plan: Plan, seed: int) -> None:
        super().__init__(plan, seed)
        self.payloads = workloads.echo_payloads(plan, seed)

    def prepare(self) -> Any:
        grain, spare = place_on_workers(objects.Echo)
        spare.parc_release()
        return grain

    def local(self) -> Any:
        return objects.Echo()

    def segment(self, k, tally, target, on_peak):  # type: ignore[no-untyped-def]
        order = workloads.echo_order(self.plan, self.seed, k, self._count(k))
        echo, payloads = target.echo, self.payloads
        latencies, clock = tally.latencies_ns, time.perf_counter_ns
        first_latency, failed = len(latencies), 0
        started = clock()
        for index in order:
            payload = payloads[index]
            sent = clock()
            reply = echo(payload)
            latencies.append(clock() - sent)
            if reply != payload:
                failed += 1
        elapsed_ns = clock() - started
        tally.attempted += len(order)
        tally.failed += failed
        tally.close_segment(len(order), elapsed_ns, first_latency)

    def cleanup(self, target: Any) -> None:
        target.parc_release()


@dataclass
class _Sinks:
    grains: list
    #: Cumulative ``[calls, total]`` each sink must report.
    expected: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.expected = [[0, 0] for _ in self.grains]


class StreamWorkload(Workload):
    """``async_stream``: async ticks dealt to two sinks, barrier per round."""

    def prepare(self) -> Any:
        return _Sinks(place_on_workers(objects.Counter))

    def local(self) -> Any:
        return _Sinks([objects.Counter() for _ in range(WORKER_PROCESSES)])

    def segment(self, k, tally, sinks, on_peak):  # type: ignore[no-untyped-def]
        chunks, added = workloads.stream_round(
            self.plan, self.seed, k, len(sinks.grains), self._count(k)
        )
        ticks = [grain.tick for grain in sinks.grains]
        clock = time.perf_counter_ns
        started = clock()
        for grain_index, values in chunks:
            tick = ticks[grain_index]
            for value in values:
                tick(value)
        posted = clock()
        counted = [grain.count() for grain in sinks.grains]
        done = clock()
        # The latency of this workload is its barrier: from the last
        # post to both sinks having counted everything.
        first_latency = len(tally.latencies_ns)
        tally.latencies_ns.append(done - posted)
        ops = 0
        for index, (calls, total) in enumerate(added):
            sinks.expected[index][0] += calls
            sinks.expected[index][1] += total
            ops += calls
            if tuple(counted[index]) != tuple(sinks.expected[index]):
                # A barrier that disagrees cannot say which calls were
                # lost, so the whole round counts as failed.
                tally.failed += calls
        tally.attempted += ops
        tally.close_segment(ops, done - started, first_latency)

    def cleanup(self, sinks: Any) -> None:
        for grain in sinks.grains:
            grain.parc_release()


class FarmWorkload(Workload):
    """``raytracer_farm``: every farm frame beside a sequential frame.

    One farm frame is one segment and one image line is one op.  Its
    sequential twin is a plain ``render`` of the same frame; every image
    of either kind must have the same checksum.
    """

    def __init__(self, plan: Plan, seed: int) -> None:
        super().__init__(plan, seed)
        self.scene = create_scene(FARM_GRID)
        self.checksums: set[int] = set()

    def prepare(self) -> Any:
        return "farm"

    def local(self) -> Any:
        return "seq"

    def parallel_first(self, k: int) -> bool:
        return workloads.farm_first(self.plan, self.seed, k)

    def segment(self, k, tally, kind, on_peak):  # type: ignore[no-untyped-def]
        size = self.plan.frame_size
        started = time.perf_counter_ns()
        if kind == "farm":
            image = farm_render(
                FARM_PROCESSORS, size, size,
                grid=FARM_GRID, lines_per_chunk=FARM_LINES_PER_CHUNK,
            )
        else:
            image = render(self.scene, size, size)
        elapsed_ns = time.perf_counter_ns() - started
        self.checksums.add(checksum(image))
        first_latency = len(tally.latencies_ns)
        tally.latencies_ns.append(elapsed_ns)
        tally.attempted += size
        if len(self.checksums) != 1:
            tally.failed += size
        tally.close_segment(size, elapsed_ns, first_latency)


class ChurnWorkload(Workload):
    """``grain_churn``: create, call, check and release grains in rounds."""

    def prepare(self) -> Any:
        return (lambda: parc.new(objects.Counter), lambda g: g.parc_release())

    def local(self) -> Any:
        return (objects.Counter, lambda g: None)

    def segment(self, k, tally, target, on_peak):  # type: ignore[no-untyped-def]
        make, release = target
        ticks, order = workloads.churn_round(
            self.plan, self.seed, k, self._count(k)
        )
        clock = time.perf_counter_ns
        started = clock()
        grains = [make() for _ in ticks]
        created = clock()
        for grain, values in zip(grains, ticks):
            tick = grain.tick
            for value in values:
                tick(value)
        sampling = clock()
        on_peak()  # every grain of the round is alive here
        sampled = clock() - sampling
        first_latency, failed = len(tally.latencies_ns), 0
        for grain, values in zip(grains, ticks):
            sent = clock()
            counted = grain.count()
            tally.latencies_ns.append(clock() - sent)
            if tuple(counted) != (len(values), sum(values)):
                failed += 1
        releasing = clock()
        for index in order:
            release(grains[index])
        ended = clock()
        per_grain = 1000.0 * len(ticks)
        tally.phases.setdefault("new_us", []).append((created - started) / per_grain)
        tally.phases.setdefault("release_us", []).append((ended - releasing) / per_grain)
        tally.attempted += len(ticks)
        tally.failed += failed
        tally.close_segment(len(ticks), ended - started - sampled, first_latency)


def make_workload(plan: Plan, seed: int) -> Workload:
    kinds: dict[str, Callable[[Plan, int], Workload]] = {
        "sync_small": EchoWorkload,
        "bulk_echo": EchoWorkload,
        "async_stream": StreamWorkload,
        "raytracer_farm": FarmWorkload,
        "grain_churn": ChurnWorkload,
    }
    return kinds[plan.name](plan, seed)


# -- one measured run ---------------------------------------------------------------


@dataclass
class RunResult:
    """Everything one measured run recorded; filled in as it goes."""

    plan: Plan
    #: Cores the run used: one at a time when the plan is pinned.
    cores: set[int]
    load_before: float
    boots: list[Boot] = field(default_factory=list)
    parallel: Tally = field(default_factory=Tally)
    sequential: Tally = field(default_factory=Tally)
    threads: list[int] = field(default_factory=list)
    timed_s: float = 0.0
    peak_rss_mb: float = 0.0
    steal_ticks: int = 0
    load_after: float = 0.0
    #: ``runtime.stats()`` of the last boot, after its grains were released.
    stats_rows: list[dict] = field(default_factory=list)
    sheds: int = 0


def run_workload(
    plan: Plan,
    seed: int,
    seconds: float,
    boots: int = SETUP_BOOTS,
    telemetry: bool = False,
) -> RunResult:
    """Run *plan* spread over *boots* cold boots and measure it.

    Each boot is timed (``setup_s``) and then serves its share of the
    blocks, so no number hangs on one boot's luck and ``grain_churn``
    never piles up more dead grains than a third of the run makes.
    """
    rotation = CoreRotation()
    probe = measure.HostProbe()
    run = RunResult(
        plan=plan,
        cores=set() if plan.pinned else set(rotation.allowed),
        load_before=measure.loadavg(),
    )
    # A pinned workload is on one core at a time, and so is its probe;
    # an unpinned one spreads over every core, so the probe visits all.
    probe_cores = () if plan.pinned else tuple(rotation.allowed)
    config = runtime_config(plan.max_calls, telemetry)
    workload = make_workload(plan, seed)
    blocks = [
        range(first, min(first + plan.segments_per_block, plan.segments))
        for first in range(0, plan.segments, plan.segments_per_block)
    ]
    deadline = time.perf_counter() + OVERRUN_FACTOR * seconds
    try:
        for epoch in range(boots):
            if plan.pinned:
                # Before init: the workers inherit the driver's core.
                run.cores.add(rotation.next((os.getpid(), probe.pid)))
            current = boot(config)
            run.boots.append(current)
            try:
                _serve_blocks(
                    run, workload, current, blocks[epoch::boots],
                    probe, probe_cores, rotation, deadline,
                )
            finally:
                shutdown(current.processes)
    finally:
        probe.close()
        rotation.restore()
    run.load_after = measure.loadavg()
    return run


def _serve_blocks(
    run: RunResult,
    workload: Workload,
    current: Boot,
    blocks: list[range],
    probe: measure.HostProbe,
    probe_cores: tuple[int, ...],
    rotation: CoreRotation,
    deadline: float,
) -> None:
    """Run *blocks* on the live boot *current*, booking into *run*.

    Every parallel segment has the host probe in front of it and its
    sequential twin — the same segment on plain objects in the driver —
    beside it, so all three see the same stretch of host weather.
    """
    plan, processes = run.plan, current.processes
    parallel, sequential = run.parallel, run.sequential
    target, local = workload.prepare(), workload.local()

    def sample_threads() -> None:
        run.threads.append(processes.threads())

    def idle() -> None:
        pass

    def run_twin(k: int) -> None:
        for _ in range(plan.sequential_repeats):
            workload.segment(k, sequential, local, idle)

    workload.segment(-1, Tally(), local, idle)
    workload.segment(-1, Tally(), target, idle)
    steal_before = measure.steal_ticks()
    timed_from = time.perf_counter()
    for block in blocks:
        if time.perf_counter() > deadline:
            break
        if plan.pinned:
            run.cores.add(rotation.next((*processes.all, probe.pid)))
        for k in block:
            parallel.host.append(probe.factor(probe_cores))
            parallel_first = workload.parallel_first(k)
            if not parallel_first:
                run_twin(k)
            cpu_before = processes.cpu_seconds()
            workload.segment(k, parallel, target, sample_threads)
            cpu_after = processes.cpu_seconds()
            if parallel_first:
                run_twin(k)
            parallel.cpu_s.append(
                (cpu_after[0] - cpu_before[0], cpu_after[1] - cpu_before[1])
            )
        sample_threads()
    run.timed_s += time.perf_counter() - timed_from
    run.steal_ticks += measure.steal_ticks() - steal_before
    snapshot = current.runtime.metrics_snapshot()["cluster"]
    workload.cleanup(target)
    run.stats_rows = current.runtime.stats()
    run.peak_rss_mb = max(run.peak_rss_mb, processes.peak_rss_mb())
    run.sheds += int(snapshot["po.sheds"]["value"]) + sum(
        int(row["shed"]) for row in run.stats_rows
    )


def block_medians(result: RunResult) -> dict[str, float]:
    """Per-block values of one run, scaled to the reference host, and
    their medians over the blocks.

    A block is ``segments_per_block`` consecutive segments.  Its rate,
    median latency and CPU cost are divided by the mean host factor the
    probe read in front of its segments, so they are stated as times on
    the undisturbed reference host; its speed-up is its own parallel
    rate over its own sequential rate, taken moments apart, and needs
    no scaling.  The ``raw_`` values are the same medians unscaled.
    """
    parallel, sequential = result.parallel, result.sequential
    per = result.plan.segments_per_block
    repeats = result.plan.sequential_repeats
    rates, raw_rates, p50s, raw_p50s, cpus, speedups = [], [], [], [], [], []
    for first in range(0, len(parallel.ops), per):
        block = slice(first, first + per)
        twins = slice(first * repeats, (first + per) * repeats)
        ops, seconds = sum(parallel.ops[block]), sum(parallel.seconds[block])
        host = sum(parallel.host[block]) / len(parallel.host[block])
        p50 = measure.median(parallel.segment_p50_ns[block]) / 1000.0
        cpu_s = sum(driver + workers for driver, workers in parallel.cpu_s[block])
        raw_rates.append(ops / seconds)
        rates.append(ops / seconds * host)
        raw_p50s.append(p50)
        p50s.append(p50 / host)
        cpus.append(cpu_s * 1e6 / ops / host)
        speedups.append(
            (ops / seconds)
            / (sum(sequential.ops[twins]) / sum(sequential.seconds[twins]))
        )
    return {
        "ops_per_s": measure.median(rates),
        "rtt_p50_us": measure.median(p50s),
        "cpu_us_per_op": measure.median(cpus),
        "speedup_vs_seq": measure.median(speedups),
        "raw_ops_per_s": measure.median(raw_rates),
        "raw_rtt_p50_us": measure.median(raw_p50s),
    }


def end_to_end(result: RunResult) -> dict[str, float]:
    """The end-to-end metrics of one run."""
    blocks = block_medians(result)
    return {
        # Unscaled: a boot lasts about a second, longer than the host's
        # weather holds, and a probe reading beside it made it worse.
        "setup_s": measure.median([boot.setup_s for boot in result.boots]),
        "ops_per_s": blocks["ops_per_s"],
        "rtt_p50_us": blocks["rtt_p50_us"],
        "speedup_vs_seq": blocks["speedup_vs_seq"],
        "cpu_us_per_op": blocks["cpu_us_per_op"],
        "peak_rss_mb": result.peak_rss_mb,
        "threads_peak": float(max(result.threads)),
    }
