"""Unit tests for the flow-control package and its integration points.

Covers the credit gate/grantor pair (including the pressure a full
bounded mailbox feeds it), the elastic controller's hysteresis, the
bounded FIFO mailbox (including the drain-vs-active accounting
regression), and the retry policy's overload veto.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster.cluster import Cluster
from repro.core import ParcConfig
from repro.core.impl import ImplementationObject, _IOMailbox, _Task
from repro.errors import ChannelError, CircuitOpenError, OverloadError
from repro.flow import (
    MIN_GRANT,
    CreditGate,
    CreditGrantor,
    ElasticController,
    ElasticPolicy,
)
from repro.remoting.resilience import RetryPolicy, call_with_retry
from repro.telemetry import MetricsRegistry
from tests.unit.test_executor import wait_until


class TestCreditGate:
    def test_acquire_release_counts(self):
        gate = CreditGate(window=2)
        gate.acquire()
        gate.acquire()
        assert gate.in_flight == 2
        gate.release()
        assert gate.in_flight == 1

    def test_full_gate_sheds_after_stall_budget(self):
        gate = CreditGate(window=1, stall_timeout_s=0.05)
        gate.acquire()
        started = time.monotonic()
        with pytest.raises(OverloadError):
            gate.acquire()
        assert time.monotonic() - started >= 0.04

    def test_release_unblocks_stalled_sender(self):
        gate = CreditGate(window=1, stall_timeout_s=5.0)
        gate.acquire()
        acquired = threading.Event()

        def second():
            gate.acquire()
            acquired.set()

        thread = threading.Thread(target=second, daemon=True)
        thread.start()
        assert wait_until(lambda: gate._waiters == 1, timeout=5.0)
        assert not acquired.is_set()
        gate.release()
        assert acquired.wait(timeout=2.0)

    def test_grant_growth_wakes_stalled_sender(self):
        gate = CreditGate(window=1, stall_timeout_s=5.0)
        gate.acquire()
        acquired = threading.Event()

        def second():
            gate.acquire()
            acquired.set()

        threading.Thread(target=second, daemon=True).start()
        assert wait_until(lambda: gate._waiters == 1, timeout=5.0)
        assert not acquired.is_set()
        gate.observe_grant(8)
        assert acquired.wait(timeout=2.0)
        assert gate.window == 8

    def test_grant_clamped_to_min(self):
        gate = CreditGate(window=4)
        gate.observe_grant(0)
        assert gate.window == MIN_GRANT

    def test_shrink_below_in_flight_blocks_new_sends(self):
        gate = CreditGate(window=4, stall_timeout_s=0.05)
        gate.acquire()
        gate.acquire()
        gate.observe_grant(1)
        with pytest.raises(OverloadError):
            gate.acquire()
        # Draining below the new window re-admits senders.
        gate.release()
        gate.release()
        gate.acquire()

    def test_metrics_emitted(self):
        metrics = MetricsRegistry()
        gate = CreditGate(window=1, stall_timeout_s=0.01, metrics=metrics)
        gate.acquire()
        with pytest.raises(OverloadError):
            gate.acquire()
        exported = metrics.export()
        assert exported["flow.credit.stalls"]["value"] == 1
        assert exported["flow.credit.sheds"]["value"] == 1
        assert exported["flow.credit.window"]["value"] == 1


class TestCreditGrantor:
    def test_idle_grantor_advertises_full_window(self):
        grantor = CreditGrantor(window=32)
        assert grantor.grant() == 32

    def test_pressure_shrinks_grant(self):
        grantor = CreditGrantor(window=32)
        grantor.add_source(lambda: 0.5)
        assert grantor.grant() == 16

    def test_saturation_floors_at_min_grant(self):
        grantor = CreditGrantor(window=32)
        grantor.add_source(lambda: 1.0)
        assert grantor.grant() == MIN_GRANT

    def test_worst_source_wins(self):
        grantor = CreditGrantor(window=100)
        grantor.add_source(lambda: 0.1)
        grantor.add_source(lambda: 0.75)
        assert grantor.grant() == 25

    def test_failing_source_reads_as_idle(self):
        grantor = CreditGrantor(window=8)
        grantor.add_source(lambda: 1 / 0)
        assert grantor.grant() == 8

    def test_full_bounded_mailbox_floors_the_grant(self):
        # The node's mailbox pressure is the fill ratio of one FIFO, so a
        # mailbox holding ``mailbox_depth`` calls reads as saturated.
        entered, gate = threading.Event(), threading.Event()

        class Blocker:
            def block(self):
                entered.set()
                gate.wait(timeout=5.0)

            def record(self, value):
                pass

        cluster = Cluster(ParcConfig(nodes=1, mailbox_depth=4))
        try:
            node = cluster.home_node
            impl = node.build_impl(Blocker(), "test.Blocker")
            node.adopt_impl(impl)
            impl.enqueue("block")
            assert entered.wait(timeout=5.0)
            for value in range(4):
                impl.enqueue("record", (value,))
            assert impl.stats()["queued"] == 4
            assert node.host.credit_grantor.grant() == MIN_GRANT
        finally:
            gate.set()
            cluster.close()


class TestElasticController:
    def test_scales_out_after_consecutive_high_samples(self):
        controller = ElasticController(
            ElasticPolicy(min_workers=1, max_workers=4, out_consecutive=2)
        )
        assert controller.observe(workers=1, queued_total=100) is None
        assert controller.observe(workers=1, queued_total=100) == "out"

    def test_respects_max_workers(self):
        controller = ElasticController(
            ElasticPolicy(min_workers=1, max_workers=2, out_consecutive=1)
        )
        assert controller.observe(workers=2, queued_total=1000) is None

    def test_scales_in_after_long_idle_run(self):
        controller = ElasticController(
            ElasticPolicy(min_workers=1, max_workers=4, in_consecutive=3)
        )
        for _ in range(2):
            assert controller.observe(workers=2, queued_total=0) is None
        assert controller.observe(workers=2, queued_total=0) == "in"

    def test_respects_min_workers(self):
        controller = ElasticController(
            ElasticPolicy(min_workers=2, max_workers=4, in_consecutive=1)
        )
        assert controller.observe(workers=2, queued_total=0) is None

    def test_cooldown_suppresses_samples_after_action(self):
        controller = ElasticController(
            ElasticPolicy(
                min_workers=1, max_workers=4, out_consecutive=1, cooldown=2
            )
        )
        assert controller.observe(workers=1, queued_total=100) == "out"
        # cooldown=2 swallows exactly the next two samples.
        assert controller.observe(workers=2, queued_total=100) is None
        assert controller.observe(workers=2, queued_total=100) is None
        assert controller.observe(workers=2, queued_total=100) == "out"

    def test_high_p99_reads_as_pressure_even_with_shallow_queues(self):
        controller = ElasticController(
            ElasticPolicy(min_workers=1, max_workers=4, out_consecutive=1)
        )
        assert controller.observe(workers=1, queued_total=0, p99_s=5.0) == "out"

    def test_high_p99_vetoes_scale_in(self):
        controller = ElasticController(
            ElasticPolicy(min_workers=1, max_workers=4, in_consecutive=1)
        )
        assert (
            controller.observe(workers=2, queued_total=0, p99_s=5.0) is None
        )


def _task(method="record", args=()):
    return _Task(method=method, args=args, kwargs={})


def _ignore(entry):
    return None


class TestIOMailbox:
    # A held inline claim keeps the mailbox from scheduling a run, so
    # puts stay queued until release_claim() hands them to the executor.

    def test_entries_drain_in_arrival_order(self):
        order = []
        box = _IOMailbox(lambda entry: order.append(entry[0].method))
        assert box.try_claim_idle()
        for method in ("bulk", "record", "urgent"):
            box.put(method, [_task(method)])
        box.release_claim()
        box.dispose()
        assert order == ["bulk", "record", "urgent"]

    def test_depth_bound_sheds_with_overload_error(self):
        box = _IOMailbox(_ignore, depth=2)
        assert box.try_claim_idle()
        box.put("record", [_task(), _task()])
        with pytest.raises(OverloadError, match="mailbox is full"):
            box.put("record", [_task()])
        assert box.queued_count() == 2
        box.release_claim()
        box.dispose()

    def test_empty_mailbox_admits_one_entry_larger_than_depth(self):
        # An aggregate bigger than the bound would otherwise be shed
        # forever; the idle mailbox takes it, the next one is refused.
        box = _IOMailbox(_ignore, depth=4)
        assert box.try_claim_idle()
        box.put("record", [_task() for _ in range(8)])
        assert box.queued_count() == 8
        with pytest.raises(OverloadError):
            box.put("record", [_task() for _ in range(8)])
        assert box.queued_count() == 8
        box.release_claim()
        box.dispose()

    def test_oversize_aggregate_runs_on_an_idle_bounded_io(self):
        seen = []

        class Adder:
            def add(self, value):
                seen.append(value)

        impl = ImplementationObject(Adder(), "test.Adder", mailbox_depth=4)
        try:
            impl.enqueue_batch("add", [((1,), {})] * 8)
            impl.drain()
            assert seen == [1] * 8
            assert impl.stats()["shed"] == 0
        finally:
            impl.dispose()

    def test_drain_waits_for_active_batch(self):
        # Regression: drain() must not return while a dequeued batch is
        # still executing (queued counters alone read as empty then).
        entered, gate = threading.Event(), threading.Event()

        def execute(entry):
            entered.set()
            gate.wait(timeout=5.0)

        box = _IOMailbox(execute)
        box.put("record", [_task(), _task()])
        assert entered.wait(timeout=5.0)
        assert box.queued_count() == 0
        drained = threading.Event()

        def drain():
            box.drain()
            drained.set()

        threading.Thread(target=drain, daemon=True).start()
        time.sleep(0.05)
        assert not drained.is_set()
        gate.set()
        assert drained.wait(timeout=2.0)
        box.dispose()

    def test_drain_under_concurrent_enqueue_sees_all_work(self):
        recorder = []
        lock = threading.Lock()

        class Sink:
            def record(self, value):
                with lock:
                    recorder.append(value)

        impl = ImplementationObject(Sink(), "test.Sink")
        try:
            stop = threading.Event()

            def producer():
                index = 0
                while not stop.is_set():
                    impl.enqueue("record", (index,))
                    index += 1

            thread = threading.Thread(target=producer, daemon=True)
            thread.start()
            time.sleep(0.05)
            stop.set()
            thread.join()
            impl.drain()
            with lock:
                seen = len(recorder)
            assert seen == impl.stats()["processed"]
            assert impl.stats()["queued"] == 0
        finally:
            impl.dispose()


class TestRetryOverloadVeto:
    def test_overload_is_not_retried(self):
        calls = []

        def shed():
            calls.append(1)
            raise OverloadError("shed")

        with pytest.raises(OverloadError):
            call_with_retry(
                shed, policy=RetryPolicy(attempts=5, backoff_s=0.0)
            )
        assert len(calls) == 1

    def test_circuit_open_is_not_retried(self):
        calls = []

        def quarantined():
            calls.append(1)
            raise CircuitOpenError("open")

        with pytest.raises(CircuitOpenError):
            call_with_retry(
                quarantined, policy=RetryPolicy(attempts=5, backoff_s=0.0)
            )
        assert len(calls) == 1

    def test_plain_channel_error_still_retries(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ChannelError("transient")
            return "ok"

        assert (
            call_with_retry(
                flaky, policy=RetryPolicy(attempts=5, backoff_s=0.0)
            )
            == "ok"
        )
        assert len(calls) == 3

    def test_default_veto_types(self):
        policy = RetryPolicy()
        assert OverloadError in policy.no_retry_on
        assert CircuitOpenError in policy.no_retry_on
