"""Unit tests for the flow-control package and its integration points.

Covers the elastic controller's hysteresis and the bounded FIFO mailbox
(including the drain-vs-active accounting regression).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.impl import ImplementationObject, _IOMailbox, _Task
from repro.errors import OverloadError
from repro.flow import ElasticController, ElasticPolicy
from tests.entries import post, post_rows


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
            post_rows(impl, "add", [((1,), {})] * 8)
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
                    post(impl, "record", (index,))
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
