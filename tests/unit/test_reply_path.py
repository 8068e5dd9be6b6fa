"""Unit tests for the adaptive call path: sync fast path, batched
replies, per-method autotuning and service-time-aware scheduling.

Everything here is in-process and socket-free; the wire-level interop of
the same surfaces lives in test_returnn_wire.py.
"""

from __future__ import annotations

import contextlib
import math
import sys
import threading
import time

import pytest

import repro.core.impl as impl_module
from repro.core.grain import AdaptiveGrainController
from repro.core.impl import ImplementationObject, _IOMailbox
from repro.remoting.messages import ReturnBatch
from repro.sched.config import SchedulerConfig
from repro.sched.planner import RebalancePlanner
from repro.sched.view import ClusterView, NodeView
from repro.cluster.placement import LocalityAwarePlacement
from repro.telemetry.metrics import (
    METHOD_HISTOGRAM_PREFIX,
    estimate_quantile,
    summarize_method_histograms,
)
from tests.entries import invoke_rows, post


class Recorder:
    def __init__(self):
        self.log = []
        self.lock = threading.Lock()

    def record(self, value):
        with self.lock:
            self.log.append(value)

    def slow(self, value, delay=0.02):
        time.sleep(delay)
        self.record(value)

    def get_log(self):
        with self.lock:
            return list(self.log)

    def double(self, value):
        return value * 2.0

    def pick(self, value):
        if value < 0:
            raise ValueError(f"no negatives: {value}")
        return value


# -- sync fast path -----------------------------------------------------------


class TestSyncFastPath:
    def test_idle_mailbox_serves_sync_calls_inline(self):
        impl = ImplementationObject(Recorder(), "t.R")
        try:
            for value in range(4):
                assert impl.invoke("double", (float(value),)) == value * 2.0
            assert impl.stats()["sync_inline"] == 4
        finally:
            impl.dispose()

    def test_busy_mailbox_falls_back_to_fifo_queueing(self):
        impl = ImplementationObject(Recorder(), "t.R")
        try:
            for value in range(3):
                post(impl, "slow", (value,))
            before = impl.stats()["sync_inline"]
            # Queued work pending: the sync call must NOT jump the line.
            assert impl.invoke("get_log") == [0, 1, 2]
            assert impl.stats()["sync_inline"] == before
        finally:
            impl.dispose()

    def test_inline_batch_counts_every_call(self):
        impl = ImplementationObject(Recorder(), "t.R")
        try:
            reply = invoke_rows(
                impl, "double", [((float(i),), {}) for i in range(6)]
            )
            stats = impl.stats()
            assert stats["processed"] == 6
            assert stats["sync_inline"] == 6
            assert reply.count == 6
        finally:
            impl.dispose()


def _ignore(entry):
    return None


class TestMailboxClaim:
    def test_claim_requires_fully_idle(self):
        box = _IOMailbox(_ignore)
        assert box.try_claim_idle()
        # Already claimed: a concurrent sync caller must queue.
        assert not box.try_claim_idle()
        box.release_claim()
        assert box.try_claim_idle()
        box.release_claim()
        box.dispose()

    def test_queued_work_blocks_the_claim(self):
        entered, gate = threading.Event(), threading.Event()

        def execute(entry):
            entered.set()
            gate.wait(timeout=5.0)

        box = _IOMailbox(execute)
        box.put("m", [object()])
        assert entered.wait(timeout=5.0)
        box.put("m", [object()])
        assert not box.try_claim_idle()
        gate.set()
        box.drain()
        # Served and idle again: the next sync caller wins the slot.
        assert box.try_claim_idle()
        box.release_claim()
        box.dispose()

    def test_stopped_mailbox_refuses_the_claim(self):
        box = _IOMailbox(_ignore)
        box.stop()
        assert not box.try_claim_idle()
        box.dispose()


class _CountingThreading:
    """Stands in for ``repro.core.impl``'s ``threading``: counts the
    events the module builds and flags when a caller waits on one."""

    def __init__(self):
        self.events = 0
        self.waiting = threading.Event()

    def __getattr__(self, name):
        return getattr(threading, name)

    def Event(self):  # noqa: N802 - mirrors threading.Event
        self.events += 1
        waiting = self.waiting

        class _SpyEvent(threading.Event):
            def wait(self, timeout=None):
                waiting.set()
                return super().wait(timeout)

        return _SpyEvent()


@pytest.fixture
def counting_threading(monkeypatch):
    shim = _CountingThreading()
    monkeypatch.setattr(impl_module, "threading", shim)
    return shim


@pytest.fixture
def parked(monkeypatch):
    """Set once a mailbox wait is about to park (the lock still held)."""
    event = threading.Event()

    @contextlib.contextmanager
    def blocking():
        event.set()
        yield

    monkeypatch.setattr(impl_module, "blocking", blocking)
    return event


class TestInlineBookkeeping:
    """What an inline call does not pay for, and who still gets woken."""

    def test_inline_calls_build_no_event(self, counting_threading):
        impl = ImplementationObject(Recorder(), "t.R")
        try:
            assert impl.invoke("double", (2.0,)) == 4.0
            reply = invoke_rows(impl, "double", [((1.0,), {}), ((3.0,), {})])
            assert list(reply.results) == [2.0, 6.0]
            assert impl.stats()["sync_inline"] == 3
            assert counting_threading.events == 0
        finally:
            impl.dispose()

    @pytest.mark.parametrize("batch", [False, True])
    def test_a_queued_call_still_waits_on_events(
        self, counting_threading, batch
    ):
        impl = ImplementationObject(Recorder(), "t.R")
        box = impl._mailbox
        results = []

        def call():
            if batch:
                reply = invoke_rows(
                    impl, "double", [((1.0,), {}), ((3.0,), {})]
                )
                results.extend(reply.results)
            else:
                results.append(impl.invoke("double", (2.0,)))

        try:
            assert box.try_claim_idle()  # the slot is taken: the call queues
            caller = threading.Thread(target=call, daemon=True)
            caller.start()
            assert counting_threading.waiting.wait(timeout=5.0)
            box.release_claim()  # schedules the run for the queued call
            caller.join(timeout=5.0)
            assert not caller.is_alive()
            assert results == ([2.0, 6.0] if batch else [4.0])
            assert counting_threading.events == (2 if batch else 1)
            assert impl.stats()["sync_inline"] == 0
        finally:
            box.dispose(wait=False)  # a claim left held must not hang here

    def test_inline_failure_is_not_an_async_failure(self):
        impl = ImplementationObject(Recorder(), "t.R")
        try:
            with pytest.raises(ValueError):
                impl.invoke("pick", (-1.0,))
            assert impl.async_failures() == []
        finally:
            impl.dispose()

    def test_drain_parked_behind_a_claim_wakes_on_release(self, parked):
        box = _IOMailbox(_ignore)
        assert box.try_claim_idle()
        drainer = threading.Thread(target=box.drain, daemon=True)
        drainer.start()
        assert parked.wait(timeout=5.0)
        # release_claim takes the lock only once the drainer is inside
        # wait(), so this release is the wake-up the drainer needs.
        box.release_claim()
        drainer.join(timeout=5.0)
        assert not drainer.is_alive()
        box.dispose()

    def test_migration_parked_behind_a_claim_starts_on_release(self, parked):
        impl = ImplementationObject(Recorder(), "t.R")
        box = impl._mailbox
        extracted = []
        try:
            assert box.try_claim_idle()
            migrator = threading.Thread(
                target=lambda: extracted.append(impl.begin_migration()),
                daemon=True,
            )
            migrator.start()
            assert parked.wait(timeout=5.0)
            box.release_claim()
            migrator.join(timeout=5.0)
            assert not migrator.is_alive()
            assert extracted == [[]]
            impl.abort_migration([])
            assert impl.invoke("double", (1.5,)) == 3.0
        finally:
            # No waiting: after a lost wake-up the mailbox stays paused.
            box.dispose(wait=False)

    def test_waits_racing_inline_calls_all_return(self):
        """Drains and migrations racing inline calls and async posts, with
        a short switch interval: a wake-up lost by the waiter count would
        leave a waiter parked for good."""
        impl = ImplementationObject(Recorder(), "t.R")
        callers, calls = 4, 150
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def caller(index):
            for value in range(calls):
                assert impl.invoke("double", (1.0,)) == 2.0
                post(impl, "record", ((index, value),))

        def drainer():
            for _ in range(100):
                impl.drain()

        def migrator():
            for _ in range(50):
                impl.abort_migration(impl.begin_migration())

        threads = [
            threading.Thread(target=caller, args=(index,), daemon=True)
            for index in range(callers)
        ]
        threads += [
            threading.Thread(target=drainer, daemon=True),
            threading.Thread(target=migrator, daemon=True),
        ]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 20.0
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(thread.is_alive() for thread in threads)
            impl.drain()
            log = impl.invoke("get_log")
            assert len(log) == callers * calls
            for index in range(callers):
                mine = [value for who, value in log if who == index]
                assert mine == list(range(calls))  # per-poster FIFO
        finally:
            sys.setswitchinterval(interval)
            impl._mailbox.dispose(wait=False)


# -- batched replies ----------------------------------------------------------


class TestInvokeBatch:
    def test_error_slots_carry_type_and_message(self):
        impl = ImplementationObject(Recorder(), "t.R")
        try:
            reply = invoke_rows(
                impl, "pick", [((1.0,), {}), ((-2.0,), {}), ((3.0,), {})]
            )
            assert isinstance(reply, ReturnBatch)
            assert reply.count == 3
            assert list(reply.results) == [1.0, None, 3.0]
            assert len(reply.errors) == 1
            index, type_name, message = reply.errors[0][:3]
            assert (index, type_name) == (1, "ValueError")
            assert "no negatives" in message
        finally:
            impl.dispose()

    def test_batch_preserves_fifo_with_pending_async_work(self):
        impl = ImplementationObject(Recorder(), "t.R")
        try:
            for value in range(3):
                post(impl, "slow", (value,))
            reply = invoke_rows(impl, "record", [((99,), {})])
            assert reply.count == 1
            assert impl.invoke("get_log") == [0, 1, 2, 99]
        finally:
            impl.dispose()


# -- per-method autotuning ----------------------------------------------------


class TestDecideMethod:
    def test_no_decision_before_min_samples(self):
        controller = AdaptiveGrainController(min_samples=8)
        for _ in range(7):
            controller.observe_execution("C", 0.001, method="m")
        assert controller.decide_method("C", "m") is None

    def test_packs_to_amortize_overhead(self):
        controller = AdaptiveGrainController(
            overhead_s=500e-6, pack_factor=4.0, min_samples=4
        )
        for _ in range(8):
            controller.observe_execution("C", 0.0001, method="m")
        decision = controller.decide_method("C", "m")
        assert decision is not None
        max_calls, flush_after_s = decision
        assert max_calls == math.ceil(4.0 * 500e-6 / 0.0001)  # 20
        # flush deadline = one batch worth of work, within the clamp.
        assert flush_after_s == pytest.approx(max_calls * 0.0001)

    def test_flush_deadline_respects_floor_and_cap(self):
        controller = AdaptiveGrainController(min_samples=1)
        controller.observe_execution("C", 1e-6, method="fast")
        _calls, flush = controller.decide_method("C", "fast")
        assert flush == controller.flush_floor_s
        controller.observe_execution("C", 0.5, method="slow")
        _calls, flush = controller.decide_method("C", "slow")
        assert flush == controller.flush_cap_s

    def test_slow_methods_stay_unbatched(self):
        controller = AdaptiveGrainController(min_samples=2)
        for _ in range(4):
            controller.observe_execution("C", 0.05, method="m")
        max_calls, _flush = controller.decide_method("C", "m")
        assert max_calls == 1

    def test_method_streams_are_independent(self):
        controller = AdaptiveGrainController(min_samples=2)
        for _ in range(4):
            controller.observe_execution("C", 0.0001, method="light")
            controller.observe_execution("C", 0.05, method="heavy")
        light, _ = controller.decide_method("C", "light")
        heavy, _ = controller.decide_method("C", "heavy")
        assert light > 1
        assert heavy == 1

    def test_merge_remote_method_stats_is_sample_weighted(self):
        controller = AdaptiveGrainController()
        controller.merge_remote_method_stats("C", "m", 0.002, 10)
        controller.merge_remote_method_stats("C", "m", 0.004, 30)
        avg, samples = controller.method_stats_for("C", "m")
        assert samples == 40
        assert avg == pytest.approx((0.002 * 10 + 0.004 * 30) / 40)

    def test_merge_ignores_empty_or_nonpositive_summaries(self):
        controller = AdaptiveGrainController()
        controller.merge_remote_method_stats("C", "m", 0.002, 0)
        controller.merge_remote_method_stats("C", "m", 0.0, 5)
        assert controller.method_stats_for("C", "m") == (0.0, 0)


# -- telemetry bridge ---------------------------------------------------------


class TestHistogramSummaries:
    def test_estimate_quantile_walks_buckets(self):
        buckets = [[0.001, 50], [0.01, 40], [0.1, 10]]
        assert estimate_quantile(buckets, 100, 0.5) == 0.001
        assert estimate_quantile(buckets, 100, 0.9) == 0.01
        assert estimate_quantile(buckets, 100, 0.99) == 0.1
        assert estimate_quantile(buckets, 0, 0.5) is None
        with pytest.raises(ValueError):
            estimate_quantile(buckets, 100, 1.5)

    def test_summaries_keyed_by_span_past_the_prefix(self):
        export = {
            f"{METHOD_HISTOGRAM_PREFIX}Calc.mul": {
                "type": "histogram",
                "count": 4,
                "sum": 0.008,
                "buckets": [[0.001, 1], [0.01, 3]],
            },
            f"{METHOD_HISTOGRAM_PREFIX}Calc.idle": {
                "type": "histogram",
                "count": 0,
                "sum": 0.0,
                "buckets": [],
            },
            "parc.other.metric": {"type": "counter", "value": 7},
        }
        summaries = summarize_method_histograms(export)
        assert set(summaries) == {"Calc.mul"}
        assert summaries["Calc.mul"]["count"] == 4.0
        assert summaries["Calc.mul"]["avg_s"] == pytest.approx(0.002)
        assert summaries["Calc.mul"]["p99_s"] == 0.01


# -- service-time-aware scheduling --------------------------------------------


class TestServiceAwareView:
    def test_node_view_defaults_are_service_blind(self):
        node = NodeView(index=0, base_uri="n0")
        assert node.avg_service_s == 0.0
        assert node.p99_s == 0.0

    def test_placement_prices_backlog_in_measured_seconds(self):
        policy = LocalityAwarePlacement(service_scale_s=0.01)
        # Same queue depth; n0's calls are 100x slower.
        view = ClusterView(
            nodes=(
                NodeView(
                    index=0,
                    base_uri="n0",
                    load=1.0,
                    queue_depth=10,
                    avg_service_s=0.05,
                ),
                NodeView(
                    index=1,
                    base_uri="n1",
                    load=1.0,
                    queue_depth=10,
                    avg_service_s=0.0005,
                ),
            )
        )
        assert policy.choose(view, 0) == 1

    def test_unmeasured_nodes_keep_the_historical_score(self):
        policy = LocalityAwarePlacement()
        view = ClusterView(
            nodes=(
                NodeView(index=0, base_uri="n0", load=2.0, queue_depth=50),
                NodeView(index=1, base_uri="n1", load=1.0, queue_depth=50),
            )
        )
        # avg_service_s == 0 on both: pure least-loaded.
        assert policy.choose(view, 0) == 1


def _report(uri, queued, grains=(), avg_service_s=None):
    data = {
        "base_uri": uri,
        "alive": True,
        "queued": queued,
        "grains": list(grains),
    }
    if avg_service_s is not None:
        data["avg_service_s"] = avg_service_s
    return data


def _grain(path, backlog):
    return {"path": path, "class_name": "C", "backlog": backlog}


class TestServiceWeightedPlanner:
    def _planner(self, **kwargs):
        defaults = dict(
            work_stealing=True,
            steal_threshold=8,
            idle_threshold=2,
            imbalance_ratio=1.5,
            migration_cooldown_s=2.0,
        )
        defaults.update(kwargs)
        return RebalancePlanner(SchedulerConfig(**defaults))

    def test_slow_node_with_equal_depth_becomes_the_victim(self):
        p = self._planner()
        # Equal task counts, but n0's tasks are 4x slower: weighted
        # backlog 12*1.6=19.2 vs 12*0.4=4.8 crosses the 1.5x-mean bar.
        reports = [
            _report(
                "n0",
                12,
                [_grain("a", 5), _grain("b", 4)],
                avg_service_s=0.02,
            ),
            _report("n1", 12, avg_service_s=0.005),
        ]
        moves = p.plan(reports, 0.0)
        assert [(m.path, m.victim_uri, m.target_uri) for m in moves] == [
            ("a", "n0", "n1")
        ]

    def test_equal_service_times_change_nothing(self):
        p = self._planner()
        reports = [
            _report("n0", 12, avg_service_s=0.01),
            _report("n1", 12, avg_service_s=0.01),
        ]
        assert p.plan(reports, 0.0) == []

    def test_one_unmeasured_node_disables_the_weighting(self):
        p = self._planner()
        # Same shape as the victim test, but n1 has no measurement:
        # unweighted depths are equal, so nothing moves.
        reports = [
            _report(
                "n0",
                12,
                [_grain("a", 5), _grain("b", 4)],
                avg_service_s=0.02,
            ),
            _report("n1", 12),
        ]
        assert p.plan(reports, 0.0) == []

