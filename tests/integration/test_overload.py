"""Integration tests: overload shedding, chaos x overload, elastic workers.

The flow-control acceptance scenarios: a bounded mailbox under
saturating load sheds with typed :class:`~repro.errors.OverloadError`
and every call either completes correctly or fails typed — nothing is
silently lost; fault injection composes with admission control; and the
elastic loop adds a worker under sustained pressure, then retires it
once the cluster drains.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.core as parc
from repro.chaos import plan_from_percentages
from repro.cluster.control import ELASTIC_INTERVAL_S, ControlPlane
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.errors import OverloadError, ParcError
from repro.perfmodel.clock import VirtualClock


@parc.parallel(name="overload.Slow", sync_methods=["slow", "ping"])
class Slow:
    """Synchronous worker whose calls occupy the mailbox measurably."""

    def slow(self, value, delay=0.1):
        time.sleep(delay)
        return value * 2

    def ping(self):
        return "ok"


@parc.parallel(name="overload.Sleeper", sync_methods=["done_count", "ping"])
class Sleeper:
    """Async worker for queue-depth pressure in the elastic test."""

    def __init__(self):
        self.done = 0

    def work(self, seconds):
        time.sleep(seconds)
        self.done += 1

    def done_count(self):
        return self.done

    def ping(self):
        return "ok"


def _hammer(po, calls, delay):
    """Fire *calls* concurrent sync calls; returns (results, errors)."""
    results: dict[int, int] = {}
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()

    def one(index):
        try:
            value = po.slow(index, delay)
            with lock:
                results[index] = value
        except ParcError as exc:
            with lock:
                errors[index] = exc

    threads = [
        threading.Thread(target=one, args=(index,), daemon=True)
        for index in range(calls)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads), "a call hung"
    return results, errors


def _total_shed(cluster) -> int:
    return sum(row.get("shed", 0) for row in cluster.stats())


class TestBoundedMailboxShedding:
    def test_saturation_sheds_typed_and_counters_agree(self):
        rt = parc.init(
            ParcConfig(
                nodes=1,
                channel="tcp",
                mailbox_depth=2,
                scheduler=SchedulerConfig(grain=GrainPolicy()),
            )
        )
        try:
            po = parc.new(Slow)
            results, errors = _hammer(po, calls=12, delay=0.1)
            # Zero lost calls: every call completed correctly or failed
            # typed with OverloadError.
            assert len(results) + len(errors) == 12
            for index, value in results.items():
                assert value == index * 2
            assert errors, "12 concurrent calls into depth 2 must shed"
            assert all(
                isinstance(exc, OverloadError) for exc in errors.values()
            ), f"unexpected error types: {errors}"
            assert results, "the bounded lane still serves admitted work"
            # Server-side shed accounting matches what callers observed.
            assert _total_shed(rt.cluster) == len(errors)
            # And the PO counted the same sheds on the client side.
            merged = rt.metrics_snapshot()["cluster"]
            assert merged["po.sheds"]["value"] == len(errors)
            po.parc_release()
        finally:
            parc.shutdown()

    def test_unbounded_default_never_sheds(self):
        rt = parc.init(
            ParcConfig(
                nodes=1,
                channel="tcp",
                scheduler=SchedulerConfig(grain=GrainPolicy()),
            )
        )
        try:
            po = parc.new(Slow)
            results, errors = _hammer(po, calls=12, delay=0.01)
            assert not errors
            assert len(results) == 12
            assert _total_shed(rt.cluster) == 0
            po.parc_release()
        finally:
            parc.shutdown()

    def test_async_sender_surfaces_overload(self):
        """Sheds on the async path surface on the next synchronous rendezvous."""
        parc.init(
            ParcConfig(
                nodes=1,
                channel="tcp",
                mailbox_depth=1,
                scheduler=SchedulerConfig(grain=GrainPolicy()),
            )
        )
        try:
            po = parc.new(Sleeper)
            with pytest.raises(OverloadError):
                for _ in range(50):
                    po.work(0.2)  # async: the sender thread eventually sheds
                po.parc_wait()
            po.parc_release()
        finally:
            parc.shutdown()


class TestChaosTimesOverload:
    def test_faults_compose_with_admission_control(self):
        """Chaos faults + saturating load: nothing lost, counters sane."""
        plan = plan_from_percentages(
            seed=42,
            connect_refused=0.02,
            send_drop=0.02,
            recv_drop=0.02,
            disconnect=0.02,
            latency=0.05,
            latency_s=(0.0005, 0.002),
        )
        rt = parc.init(
            ParcConfig(
                nodes=2,
                channel="chaos+tcp",
                mailbox_depth=2,
                chaos_plan=plan,
                scheduler=SchedulerConfig(grain=GrainPolicy()),
            )
        )
        try:
            po = parc.new(Slow)
            results, errors = _hammer(po, calls=16, delay=0.05)
            # Zero lost calls: every outcome is a correct result or a
            # typed ParcError (overload, chaos transport fault, ...).
            assert len(results) + len(errors) == 16
            for index, value in results.items():
                assert value == index * 2
            assert results, "modest fault rates must let some calls through"
            overloads = [
                exc
                for exc in errors.values()
                if isinstance(exc, OverloadError)
            ]
            # Every client-observed overload traces back to a counted
            # shed by server-side admission control — never out of thin
            # air.
            assert len(overloads) <= _total_shed(rt.cluster)
            po.parc_release()
        finally:
            parc.shutdown()


class TestElasticWorkers:
    def test_scale_out_under_pressure_then_back_in(self):
        rt = parc.init(
            ParcConfig(
                nodes=1,
                channel="tcp",
                worker_processes=1,
                worker_modules=("tests.integration.test_overload",),
                elastic=(1, 2),
                scheduler=SchedulerConfig(grain=GrainPolicy()),
            )
        )
        try:
            cluster = rt.cluster
            # Step the elastic duty on a virtual clock instead of waiting
            # out its one-second samples: same controller, same cluster.
            cluster.control.stop()
            clock = VirtualClock()
            control = ControlPlane(
                cluster, elastic=cluster.control.elastic, clock=clock
            )

            def sample():
                clock.advance(ELASTIC_INTERVAL_S)
                control.tick()

            assert len(cluster.worker_handles) == 1

            # Sleepers everywhere; pressure goes only through those on
            # the in-process node and the *initial* worker — scale-in
            # retires the newest worker, so no state rides on it.
            sleepers = [parc.new(Sleeper) for _ in range(4)]
            posted = 0

            deadline = time.monotonic() + 30.0
            while (
                cluster.metrics.snapshot().get("cluster.elastic.scale_out", 0)
                == 0
            ):
                assert time.monotonic() < deadline, "never scaled out"
                for sleeper in sleepers:
                    sleeper.work(0.05)
                    posted += 1
                time.sleep(0.02)
                sample()
            assert len(cluster.worker_handles) == 2

            # Load off: the long idle run (plus cooldown) retires the
            # extra worker again.
            deadline = time.monotonic() + 30.0
            while (
                cluster.metrics.snapshot().get("cluster.elastic.scale_in", 0)
                == 0
            ):
                assert time.monotonic() < deadline, "never scaled back in"
                time.sleep(0.05)
                sample()
            assert len(cluster.worker_handles) == 1

            # Zero lost calls through the scale-out/in cycle: every
            # posted async call executed exactly once.
            for sleeper in sleepers:
                sleeper.parc_wait()
            assert sum(s.done_count() for s in sleepers) == posted
            assert all(s.ping() == "ok" for s in sleepers)
            snapshot = cluster.metrics.snapshot()
            assert snapshot.get("cluster.elastic.workers") == 1
            for sleeper in sleepers:
                sleeper.parc_release()
        finally:
            parc.shutdown()

    def test_elastic_requires_process_workers(self):
        with pytest.raises(ParcError):
            parc.init(ParcConfig(nodes=1, channel="tcp", elastic=(1, 2)))
