"""OVERLOAD — flow-control guardrails: shed latency, elasticity.

Two claims, asserted on this machine:

* a bounded mailbox keeps latency bounded under saturating load: the
  p99 of *admitted* calls stays within the budget implied by the
  mailbox depth and service time, and shed calls fail fast instead of queueing
  (an unbounded mailbox would stretch every caller's latency with the
  full backlog);
* the elastic worker loop loses nothing: a saturating prime-farm burst
  scales the cluster out, draining it scales back in, and every posted
  candidate was tested exactly once through the whole cycle.

Like every suite here the assertions are shapes and ratios, never
absolute rates.
"""

from __future__ import annotations

import threading
import time

import repro.core as parc
from repro.apps.primes import PrimeServer
from repro.benchlib.tables import format_table
from repro.cluster.control import ELASTIC_INTERVAL_S, ControlPlane
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.errors import OverloadError, ParcError
from repro.perfmodel.clock import VirtualClock

#: Admission-control scenario: service time, mailbox bound, concurrency.
SERVICE_S = 0.02
MAILBOX_DEPTH = 4
CALLERS = 24


@parc.parallel(name="bench.overload.Slow", sync_methods=["slow"])
class Slow:
    """Fixed service time per call: queueing is the only variable."""

    def slow(self, value, delay=SERVICE_S):
        time.sleep(delay)
        return value * 2


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def saturation_latencies() -> dict:
    """Saturate one bounded node; time every call by outcome.

    Returns admitted/shed latency lists plus the server-side shed count
    — callers cross-check that nothing was silently dropped.
    """
    rt = parc.init(
        ParcConfig(
            nodes=1,
            channel="tcp",
            mailbox_depth=MAILBOX_DEPTH,
            scheduler=SchedulerConfig(grain=GrainPolicy()),
        )
    )
    admitted: list[float] = []
    shed: list[float] = []
    failures: list[BaseException] = []
    lock = threading.Lock()
    try:
        po = parc.new(Slow)
        po.slow(0)  # warm the connection + worker thread

        def one(index):
            started = time.perf_counter()
            try:
                value = po.slow(index)
                elapsed = time.perf_counter() - started
                with lock:
                    assert value == index * 2
                    admitted.append(elapsed)
            except OverloadError:
                elapsed = time.perf_counter() - started
                with lock:
                    shed.append(elapsed)
            except ParcError as exc:  # anything else is a lost call
                with lock:
                    failures.append(exc)

        threads = [
            threading.Thread(target=one, args=(index,), daemon=True)
            for index in range(CALLERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads), "a call hung"
        server_shed = sum(row.get("shed", 0) for row in rt.cluster.stats())
    finally:
        parc.shutdown()
    return {
        "admitted": admitted,
        "shed": shed,
        "failures": failures,
        "server_shed": server_shed,
    }


def _find_big_prime(floor: int = 10**10) -> int:
    """Smallest prime above *floor* — one trial division costs ~tens of ms."""
    from repro.apps.primes import is_prime

    candidate = floor + 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def elastic_cycle_stats() -> dict:
    """Saturate an elastic cluster, then drain it; account for every call.

    Scale-in retires the *newest* worker — the one spawned by the loop,
    which placement never assigned a grain to — so the accounting needs
    no respawn machinery: every posted candidate must be tested exactly
    once.
    """
    prime = _find_big_prime()
    rt = parc.init(
        ParcConfig(
            nodes=1,
            channel="tcp",
            worker_processes=1,
            worker_modules=("repro.apps.primes",),
            elastic=(1, 2),
            scheduler=SchedulerConfig(grain=GrainPolicy()),
        )
    )
    try:
        cluster = rt.cluster
        # Step the elastic duty on a virtual clock rather than waiting
        # out its one-second samples.
        cluster.control.stop()
        clock = VirtualClock()
        control = ControlPlane(
            cluster, elastic=cluster.control.elastic, clock=clock
        )

        def sample():
            clock.advance(ELASTIC_INTERVAL_S)
            control.tick()

        servers = [parc.new(PrimeServer) for _ in range(4)]
        posted = 0
        deadline = time.monotonic() + 60.0
        while (
            cluster.metrics.snapshot().get("cluster.elastic.scale_out", 0)
            == 0
        ):
            if time.monotonic() > deadline:
                raise AssertionError("elastic loop never scaled out")
            # Top the queues up instead of flooding: deep enough to read
            # as sustained pressure, shallow enough to drain promptly
            # once the load stops (each candidate is ~ms of division).
            if cluster.home_node.report()["queued"] < 50:
                for server in servers:
                    server.process([prime, prime])
                    posted += 2
            else:
                time.sleep(0.01)
            sample()
        workers_peak = len(cluster.worker_handles)

        deadline = time.monotonic() + 60.0
        while (
            cluster.metrics.snapshot().get("cluster.elastic.scale_in", 0) == 0
        ):
            if time.monotonic() > deadline:
                raise AssertionError("elastic loop never scaled back in")
            time.sleep(0.05)
            sample()
        workers_settled = len(cluster.worker_handles)

        for server in servers:
            server.parc_wait()
        tested = sum(server.count() for server in servers)
        snapshot = cluster.metrics.snapshot()
        for server in servers:
            server.parc_release()
    finally:
        parc.shutdown()
    return {
        "posted": posted,
        "tested": tested,
        "workers_peak": workers_peak,
        "workers_settled": workers_settled,
        "scale_out": snapshot.get("cluster.elastic.scale_out", 0),
        "scale_in": snapshot.get("cluster.elastic.scale_in", 0),
    }


class TestBoundedLatency:
    def test_admitted_p99_bounded_and_sheds_fail_fast(self):
        stats = saturation_latencies()
        assert not stats["failures"], stats["failures"]
        admitted, shed = stats["admitted"], stats["shed"]
        assert admitted, "saturation must still admit work"
        assert shed, (
            f"{CALLERS} callers into a depth-{MAILBOX_DEPTH} mailbox must shed"
        )
        # Nothing lost, and the server counted every shed the clients saw.
        assert len(admitted) + len(shed) == CALLERS
        assert stats["server_shed"] == len(shed)
        # An admitted call waits at most for the bounded backlog (depth
        # tasks plus the executing one), with generous dispatch headroom.
        budget = (MAILBOX_DEPTH + 2) * SERVICE_S * 4
        p99_admitted = _percentile(admitted, 0.99)
        p99_shed = _percentile(shed, 0.99)
        print()
        print(
            format_table(
                ["outcome", "count", "p99 (s)"],
                [
                    ["admitted", str(len(admitted)), f"{p99_admitted:.4f}"],
                    ["shed", str(len(shed)), f"{p99_shed:.4f}"],
                ],
            )
        )
        assert p99_admitted <= budget, (
            f"admitted p99 {p99_admitted:.3f}s blew the bounded-mailbox "
            f"budget {budget:.3f}s"
        )
        # Fail-fast means a shed call never sat behind the backlog.
        assert p99_shed <= budget / 2, (
            f"shed p99 {p99_shed:.3f}s — rejections queued instead of "
            f"failing fast"
        )


class TestElasticCycle:
    def test_zero_lost_calls_through_scale_out_and_in(self):
        stats = elastic_cycle_stats()
        print()
        print(
            format_table(
                ["metric", "value"],
                [[key, str(value)] for key, value in sorted(stats.items())],
            )
        )
        assert stats["scale_out"] >= 1
        assert stats["scale_in"] >= 1
        assert stats["workers_peak"] == 2
        assert stats["workers_settled"] == 1
        # The guardrail: every candidate posted through the cycle was
        # tested exactly once — scale-out/in lost (and duplicated) nothing.
        assert stats["tested"] == stats["posted"], (
            f"lost calls through the elastic cycle: posted "
            f"{stats['posted']}, tested {stats['tested']}"
        )
