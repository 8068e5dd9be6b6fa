"""Statistics helpers and ``/proc`` readers for parcbench.

Everything here is pure or reads one ``/proc`` file; nothing imports the
runtime, so the unit tests in ``tests/`` cover it without booting one.
"""

from __future__ import annotations

import math
import os
import platform
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Iterable, Sequence

#: Percentiles the tail rule may report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0)

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10

_CLK_TCK = os.sysconf("SC_CLK_TCK")  # unit of /proc/stat's steal column


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    This is the estimator the benchmark driver uses for its spread
    check, so the printed quartiles are comparable with it.
    """
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def segment_rates(ops: Sequence[int], seconds: Sequence[float]) -> list[float]:
    """Per-segment throughput; segments pair up by position."""
    if len(ops) != len(seconds):
        raise ValueError("ops and seconds differ in length")
    return [count / elapsed for count, elapsed in zip(ops, seconds)]


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return float(sorted_values[_rank(len(sorted_values), pct) - 1])


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of the *pct* percentile among *count* samples
    (rounded first: 10000 * 99.9 / 100 is not quite 9990 in floats)."""
    return min(count, max(1, math.ceil(round(count * pct / 100.0, 6))))


#: Consecutive individually timed calls that share one reading of the
#: host's speed (:class:`HostProbe`) in the ladder rungs.
CHUNK = 25


def tail_percentile(values: Iterable[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(pct, value, sample_count)`` or ``None`` when even p90 has
    fewer than :data:`TAIL_MIN_BEYOND` samples beyond it — a tail read
    off a handful of samples is noise, not a percentile.
    """
    ordered = sorted(values)
    count = len(ordered)
    for pct in TAIL_CANDIDATES:
        if count and count - _rank(count, pct) >= TAIL_MIN_BEYOND:
            return pct, percentile(ordered, pct), count
    return None


def relative_difference(first: float, second: float) -> float:
    """|a - b| over their mean; 0 when both are 0."""
    mean = (abs(first) + abs(second)) / 2.0
    return abs(first - second) / mean if mean else 0.0


# -- host speed ---------------------------------------------------------------

#: Iterations of the CPU probe's loop: about 0.6 ms.
SPIN_ITERATIONS = 20_000

#: Socket round trips the IPC probe makes with its helper process.
IPC_ROUND_TRIPS = 20

#: What the two probes take on the undisturbed reference host.  Frozen:
#: changing either rescales every timing metric.
SPIN_REFERENCE_NS = 600_000
IPC_REFERENCE_NS = 200_000

_IPC_HELPER = """
import socket, sys
peer = socket.socket(fileno=int(sys.argv[1]))
while True:
    data = peer.recv(64)
    if not data:
        break
    peer.send(data)
"""


def spin() -> int:
    """Nanoseconds a fixed pure-Python loop takes right now."""
    started = time.perf_counter_ns()
    total = 0
    for value in range(SPIN_ITERATIONS):
        total += value
    return time.perf_counter_ns() - started


class HostProbe:
    """How much slower than the reference host this host is right now.

    Other tenants of a shared host slow a run by 20-50 % for seconds at
    a time (README, "Steadiness").  The probe sits in front of every
    timed segment and measures two things that use nothing from
    ``src/``, so no change to the runtime can move them: a pure-Python
    loop (interpreter speed) and a socket ping-pong with a helper
    process (kernel wake-up and context-switch speed).  Their geometric
    mean, relative to the frozen reference times, is the factor every
    timing next to it is divided by.
    """

    def __init__(self) -> None:
        self._socket, theirs = socket.socketpair()
        try:
            self._helper = subprocess.Popen(
                [sys.executable, "-c", _IPC_HELPER, str(theirs.fileno())],
                pass_fds=[theirs.fileno()],
            )
        finally:
            theirs.close()
        self._factor_here()  # returns once the helper is up and answering

    @property
    def pid(self) -> int:
        """The helper process, so pinned workloads can move it along."""
        return self._helper.pid

    def factor(self, cores: Sequence[int] = ()) -> float:
        """Slow-down factor now: 1.0 on the undisturbed reference host.

        With no *cores* the probe runs where the caller is, and expects
        the helper on the same core (pinned workloads move it along).
        With *cores* it visits each in turn — the calling thread and the
        helper are moved there, the thread is put back afterwards — and
        averages: what an unpinned workload spread over them sees.
        """
        if not cores:
            return self._factor_here()
        thread = threading.get_native_id()
        before = os.sched_getaffinity(thread)
        try:
            factors = []
            for core in cores:
                os.sched_setaffinity(thread, {core})
                os.sched_setaffinity(self._helper.pid, {core})
                factors.append(self._factor_here())
        finally:
            os.sched_setaffinity(thread, before)
        return sum(factors) / len(factors)

    def _factor_here(self) -> float:
        spin_ns = spin()
        peer, message = self._socket, b"x" * 64
        started = time.perf_counter_ns()
        for _ in range(IPC_ROUND_TRIPS):
            peer.send(message)
            peer.recv(64)
        ipc_ns = time.perf_counter_ns() - started
        return math.sqrt(
            (spin_ns / SPIN_REFERENCE_NS) * (ipc_ns / IPC_REFERENCE_NS)
        )

    def close(self) -> None:
        """End the helper (it exits on end-of-file) and wait for it."""
        self._socket.close()
        self._helper.wait(timeout=30)


# -- /proc readers ------------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of *pid*, all its threads, dead or alive.

    Reads the process's CPU-time clock — the id glibc's
    ``clock_getcpuclockid(pid)`` computes — which counts in nanoseconds.
    ``/proc/<pid>/stat`` holds the same total in 10 ms ticks, too coarse
    for segments of 50 ms; even over half-second blocks whole runs would
    report the identical quantised value.
    """
    return time.clock_gettime_ns((~pid << 3) | 2) / 1e9


def _status_field(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} missing from /proc/{pid}/status")


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of *pid* in MiB (``VmHWM``)."""
    return _status_field(pid, "VmHWM") / 1024.0


def thread_count(pid: int) -> int:
    """OS threads of *pid*, counted from ``/proc/<pid>/task``."""
    return len(os.listdir(f"/proc/{pid}/task"))


def steal_ticks() -> int:
    """Cumulative hypervisor steal ticks (8th value of the ``cpu`` line)."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def loadavg() -> float:
    """One-minute load average."""
    with open("/proc/loadavg", "r", encoding="ascii") as handle:
        return float(handle.read().split()[0])


def pid_alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            text = handle.read().decode("ascii", "replace")
    except OSError:
        return False
    return text[text.rindex(")") + 2 :].split()[0] != "Z"


# -- environment record -------------------------------------------------------

#: Load average above this share of the cores means someone else is busy.
BUSY_LOAD_PER_CORE = 0.75

#: Steal above this share of the timed phase's ticks distorts timings.
BUSY_STEAL_SHARE = 0.02


def environment() -> dict:
    """Host facts recorded next to every result (SNIPPETS 1 and 3)."""
    return {
        "nproc": os.cpu_count(),
        "affinity_at_start": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "kernel": platform.release(),
        "machine": platform.machine(),
        "clk_tck": _CLK_TCK,
    }


def busy_warnings(
    load_before: float, load_after: float, steal: int, timed_s: float
) -> list[str]:
    """Why the numbers of this run may not be trusted, if anything."""
    warnings = []
    cores = os.cpu_count() or 1
    if load_before > BUSY_LOAD_PER_CORE * cores:
        warnings.append(
            f"load average {load_before:.2f} before the run: host was busy"
        )
    # The benchmark itself keeps up to `cores` processes runnable, so
    # only load beyond that is someone else's.
    if load_after > cores + BUSY_LOAD_PER_CORE * cores:
        warnings.append(
            f"load average {load_after:.2f} after the run: host was busy"
        )
    ticks = timed_s * _CLK_TCK * cores
    if ticks and steal / ticks > BUSY_STEAL_SHARE:
        warnings.append(
            f"{steal} steal ticks in {timed_s:.1f}s "
            f"({100.0 * steal / ticks:.1f}% of cpu time): noisy neighbour"
        )
    return warnings
