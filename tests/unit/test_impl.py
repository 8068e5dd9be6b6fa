"""Unit tests for the implementation-object container (active objects)."""

from __future__ import annotations

import array
import logging
import threading
import time

import pytest

from repro.core.impl import ImplementationObject, _Aggregate
from repro.errors import ScooppError, SerializationError
from repro.telemetry.node import NodeTelemetry
from tests.entries import post, post_columns, post_rows


class Recorder:
    def __init__(self):
        self.log = []
        self.lock = threading.Lock()

    def record(self, value):
        with self.lock:
            self.log.append(value)

    def slow(self, value, delay=0.01):
        time.sleep(delay)
        self.record(value)

    def get_log(self):
        with self.lock:
            return list(self.log)

    def boom(self):
        raise ValueError("exploding method")


@pytest.fixture
def impl():
    container = ImplementationObject(Recorder(), "test.Recorder")
    yield container
    container.dispose()


class TestOrdering:
    def test_fifo_order_async(self, impl):
        for index in range(50):
            post(impl, "record", (index,))
        impl.drain()
        assert impl.invoke("get_log") == list(range(50))

    def test_batch_runs_in_order(self, impl):
        post_rows(impl, "record", [((index,), {}) for index in range(10)])
        impl.drain()
        assert impl.invoke("get_log") == list(range(10))

    def test_sync_after_async_sees_everything(self, impl):
        for index in range(5):
            post(impl, "record", (index,))
        # No drain: the sync call queues behind pending tasks.
        assert impl.invoke("get_log") == list(range(5))

    def test_interleaved_batches_and_singles(self, impl):
        post(impl, "record", ("a",))
        post_rows(impl, "record", [(("b",), {}), (("c",), {})])
        post(impl, "record", ("d",))
        assert impl.invoke("get_log") == ["a", "b", "c", "d"]

    def test_serial_execution_no_races(self):
        class Unsafe:
            def __init__(self):
                self.counter = 0

            def bump(self):
                snapshot = self.counter
                time.sleep(0.0005)
                self.counter = snapshot + 1

            def value(self):
                return self.counter

        container = ImplementationObject(Unsafe(), "test.Unsafe")
        try:
            for _ in range(20):
                post(container, "bump")
            assert container.invoke("value") == 20
        finally:
            container.dispose()


class TestSyncInvocation:
    def test_result_returned(self, impl):
        post(impl, "record", (1,))
        assert impl.invoke("get_log") == [1]

    def test_error_raised_to_caller(self, impl):
        with pytest.raises(ValueError, match="exploding"):
            impl.invoke("boom")

    def test_kwargs(self, impl):
        impl.invoke("slow", ("x",), {"delay": 0.0})
        assert impl.invoke("get_log") == ["x"]


class TestAsyncFailures:
    def test_async_failure_recorded_not_raised(self, impl):
        post(impl, "boom")
        impl.drain()
        failures = impl.async_failures()
        assert len(failures) == 1
        assert failures[0][0] == "boom"
        assert "exploding" in failures[0][1]

    def test_failure_does_not_stop_worker(self, impl):
        post(impl, "boom")
        post(impl, "record", ("after",))
        assert impl.invoke("get_log") == ["after"]

    def test_failure_log_bounded(self, impl):
        for _ in range(40):
            post(impl, "boom")
        impl.drain()
        assert len(impl.async_failures()) <= 32
        assert impl.stats()["async_failures"] == 40


class TestLifecycle:
    def test_drain_waits_for_all_work(self, impl):
        for index in range(5):
            post(impl, "slow", (index,), {"delay": 0.005})
        impl.drain()
        assert impl.stats()["queued"] == 0
        assert len(impl.invoke("get_log")) == 5

    def test_dispose_then_enqueue_rejected(self):
        container = ImplementationObject(Recorder(), "test.Recorder")
        container.dispose()
        with pytest.raises(ScooppError, match="disposed"):
            post(container, "record", (1,))

    def test_dispose_completes_pending_work(self):
        recorder = Recorder()
        container = ImplementationObject(recorder, "test.Recorder")
        for index in range(10):
            post(container, "slow", (index,), {"delay": 0.002})
        container.dispose()
        assert recorder.get_log() == list(range(10))

    def test_stats_shape(self, impl):
        post(impl, "record", (1,))
        impl.drain()
        stats = impl.stats()
        assert stats["class_name"] == "test.Recorder"
        assert stats["processed"] >= 1
        assert stats["busy_s"] >= 0.0
        assert stats["async_failures"] == 0
        assert stats["shed"] == 0
        assert set(stats) == {
            "class_name",
            "queued",
            "processed",
            "sync_inline",
            "busy_s",
            "shed",
            "async_failures",
            "migrated",
        }

    def test_queue_length_counts_active(self, impl):
        release = threading.Event()

        class Slow:
            def wait(self):
                release.wait(5)

        container = ImplementationObject(Slow(), "test.Slow")
        try:
            post(container, "wait")
            deadline = time.time() + 5
            while container.queue_length == 0 and time.time() < deadline:
                time.sleep(0.001)
            assert container.queue_length >= 1
            release.set()
            container.drain()
            assert container.queue_length == 0
        finally:
            release.set()
            container.dispose()


class TestExecutionCallback:
    def test_callback_receives_class_duration_and_method(self):
        seen = []

        def on_execution(class_name, elapsed, method):
            seen.append((class_name, elapsed, method))

        container = ImplementationObject(
            Recorder(), "test.Recorder", on_execution=on_execution
        )
        try:
            container.invoke("record", (1,))
            assert seen
            assert seen[0][0] == "test.Recorder"
            assert seen[0][1] >= 0.0
            assert seen[0][2] == "record"
        finally:
            container.dispose()

    def test_callback_errors_do_not_break_work(self):
        def broken_callback(class_name, elapsed, method):
            raise RuntimeError("stats backend down")

        container = ImplementationObject(
            Recorder(), "test.Recorder", on_execution=broken_callback
        )
        try:
            assert container.invoke("get_log") == []
        finally:
            container.dispose()

    def test_failing_observer_is_counted_and_logged_once(self, caplog):
        class _Node:
            telemetry = NodeTelemetry("test-node")

        def wrong_arity(class_name, elapsed):
            raise AssertionError("never reached: the call itself fails")

        container = ImplementationObject(
            Recorder(), "test.Recorder", on_execution=wrong_arity, node=_Node
        )
        try:
            with caplog.at_level(logging.ERROR, logger="repro.core"):
                for value in range(3):
                    container.invoke("record", (value,))
            assert container.invoke("get_log") == [0, 1, 2]
            counter = _Node.telemetry.metrics.export()[
                "parc.errors.on_execution"
            ]
            assert counter["value"] == 4
            records = [
                r for r in caplog.records if "on_execution" in r.getMessage()
            ]
            assert len(records) == 1
            assert "TypeError" in records[0].exc_text
        finally:
            container.dispose()


class Picky(Recorder):
    def record_unless_odd(self, value):
        if value % 2:
            raise ValueError(f"odd value {value}")
        self.record(value)


def _batch(values):
    return [((value,), {}) for value in values]


class TestProcessNLoop:
    """A dequeued asynchronous aggregate runs as one loop (Fig. 7)."""

    def test_failure_mid_batch_is_recorded_and_the_rest_run(self):
        target = Picky()
        container = ImplementationObject(target, "test.Picky")
        try:
            post_rows(container, "record_unless_odd", _batch(range(6)))
            container.drain()
            assert target.get_log() == [0, 2, 4]
            failures = container.async_failures()
            assert [method for method, _text in failures] == (
                ["record_unless_odd"] * 3
            )
            assert "odd value 1" in failures[0][1]
            assert "odd value 5" in failures[2][1]
            assert container.stats()["async_failures"] == 3
        finally:
            container.dispose()

    def test_unknown_method_fails_every_call_of_the_batch(self, impl):
        post_rows(impl, "no_such_method", _batch(range(3)))
        post(impl, "record", ("after",))
        assert impl.invoke("get_log") == ["after"]
        assert len(impl.async_failures()) == 3

    def test_processed_and_busy_advance_by_the_batch(self, impl):
        before = impl.stats()
        post_rows(
            impl, "slow", [((index, 0.002), {}) for index in range(5)]
        )
        impl.drain()
        after = impl.stats()
        assert after["processed"] - before["processed"] == 5
        assert after["busy_s"] - before["busy_s"] >= 5 * 0.002

    def test_observer_gets_one_sample_per_batch_with_the_mean(self):
        seen = []
        container = ImplementationObject(
            Recorder(),
            "test.Recorder",
            on_execution=lambda name, elapsed, method: seen.append(
                (name, elapsed, method)
            ),
        )
        try:
            post_rows(
                container, "slow", [((index, 0.004), {}) for index in range(4)]
            )
            container.drain()
            assert len(seen) == 1
            name, elapsed, method = seen[0]
            assert (name, method) == ("test.Recorder", "slow")
            # The per-call mean, not the sum.
            assert elapsed == pytest.approx(container.stats()["busy_s"] / 4)
            assert elapsed >= 0.004
        finally:
            container.dispose()

    def test_telemetry_keeps_one_span_and_sample_per_call(self):
        from types import SimpleNamespace

        from repro.telemetry import TelemetryConfig
        from repro.telemetry.node import NodeTelemetry

        telemetry = NodeTelemetry("n0", TelemetryConfig(enabled=True))
        container = ImplementationObject(
            Recorder(),
            "test.Recorder",
            node=SimpleNamespace(telemetry=telemetry),
        )
        try:
            post_rows(container, "record", _batch(range(7)))
            container.drain()
            spans = [
                e for e in telemetry.tracer.events() if e.category == "io"
            ]
            assert [e.name for e in spans] == ["Recorder.record"] * 7
            histogram = telemetry.metrics.export()[
                "parc.method.seconds.Recorder.record"
            ]
            assert histogram["count"] == 7
            assert container.stats()["processed"] == 7
        finally:
            container.dispose()

    def test_global_tracer_also_selects_the_per_call_path(self):
        from repro.telemetry import Tracer, set_global_tracer

        tracer = Tracer()
        set_global_tracer(tracer)
        container = ImplementationObject(Recorder(), "test.Recorder")
        try:
            post_rows(container, "record", _batch(range(3)))
            container.drain()
            io_spans = [e for e in tracer.events() if e.category == "io"]
            assert len(io_spans) == 3
        finally:
            set_global_tracer(None)
            container.dispose()


class Gated(Recorder):
    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def hold(self):
        self.entered.set()
        assert self.gate.wait(timeout=5.0)

    def tick(self):
        self.record("tick")


def _no_rows(self):
    raise AssertionError("per-call rows built on an untraced path")


class EntrySpy:
    """A grain's new home that records the entries each request carries."""

    def __init__(self):
        self.requests = []

    def enqueue_batch(self, entries):
        self.requests.append(list(entries))


class TestColumnRun:
    """A columnar aggregate runs from its columns; rows only on demand."""

    def test_untraced_run_builds_no_rows(self, monkeypatch):
        monkeypatch.setattr(_Aggregate, "__iter__", _no_rows)
        target = Picky()
        container = ImplementationObject(target, "test.Picky")
        try:
            post_columns(
                container, "record_unless_odd", 5, [array.array("b", range(5))]
            )
            container.drain()
            assert target.get_log() == [0, 2, 4]
            assert container.stats()["processed"] == 5
            assert container.stats()["async_failures"] == 2
        finally:
            container.dispose()

    def test_traced_run_keeps_one_io_span_per_call(self):
        from types import SimpleNamespace

        from repro.telemetry import TelemetryConfig

        telemetry = NodeTelemetry("n0", TelemetryConfig(enabled=True))
        target = Recorder()
        container = ImplementationObject(
            target, "test.Recorder", node=SimpleNamespace(telemetry=telemetry)
        )
        try:
            post_columns(container, "record", 4, [[10, 11, 12, 13]])
            container.drain()
            spans = [
                e for e in telemetry.tracer.events() if e.category == "io"
            ]
            assert [e.name for e in spans] == ["Recorder.record"] * 4
            assert target.get_log() == [10, 11, 12, 13]
        finally:
            container.dispose()

    def test_migrated_columnar_entry_runs_every_call_once_in_order(self):
        from types import SimpleNamespace

        from repro.sched.engine import NodeScheduler

        target = Gated()
        victim = ImplementationObject(target, "test.Gated")
        post(victim, "hold")
        assert target.entered.wait(timeout=5.0)
        post_columns(victim, "record", 6, [array.array("h", range(6))])
        post_columns(victim, "tick", 2, [])
        extracted = []
        pausing = threading.Thread(
            target=lambda: extracted.append(victim.begin_migration())
        )
        pausing.start()
        target.gate.set()
        pausing.join(timeout=5.0)
        assert not pausing.is_alive()
        (entries,) = extracted
        assert [len(entry) for entry in entries] == [6, 2]
        home = Gated()
        adopted = ImplementationObject(home, "test.Gated")
        try:
            moved, lost = NodeScheduler(SimpleNamespace())._replay(
                entries, adopted
            )
            victim.complete_migration(adopted)
            adopted.drain()
            assert (moved, lost) == (8, 0)
            assert home.get_log() == [0, 1, 2, 3, 4, 5, "tick", "tick"]
            assert target.get_log() == []
        finally:
            adopted.dispose()

    def test_forwarded_columnar_aggregate_is_one_entry(self, monkeypatch):
        victim = ImplementationObject(Recorder(), "test.Recorder")
        assert victim.begin_migration() == []
        home = EntrySpy()
        victim.complete_migration(home)
        column = array.array("h", range(6))
        monkeypatch.setattr(_Aggregate, "calls", _no_rows)
        monkeypatch.setattr(_Aggregate, "__iter__", _no_rows)
        post_columns(victim, "record", 6, [column])
        assert home.requests == [[("record", 6, [column], None)]]
        assert home.requests[0][0][2][0] is column

    def test_replayed_aggregates_are_one_entry_per_request(self, monkeypatch):
        from types import SimpleNamespace

        from repro.sched.engine import NodeScheduler

        target = Gated()
        victim = ImplementationObject(target, "test.Gated")
        post(victim, "hold")
        assert target.entered.wait(timeout=5.0)
        column = array.array("h", range(6))
        post_columns(victim, "record", 6, [column])
        post_rows(victim, "record", [((), {"value": 9})])
        extracted = []
        pausing = threading.Thread(
            target=lambda: extracted.append(victim.begin_migration())
        )
        pausing.start()
        target.gate.set()
        pausing.join(timeout=5.0)
        assert not pausing.is_alive()
        (entries,) = extracted
        home = EntrySpy()
        monkeypatch.setattr(_Aggregate, "calls", _no_rows)
        monkeypatch.setattr(_Aggregate, "__iter__", _no_rows)
        moved, lost = NodeScheduler(SimpleNamespace())._replay(entries, home)
        assert (moved, lost) == (7, 0)
        assert home.requests == [
            [("record", 6, [column], None)],
            [("record", 1, None, [((), {"value": 9})])],
        ]
        assert home.requests[0][0][2][0] is column

    def test_ragged_columns_are_refused_before_admission(self, impl):
        before = impl.stats()["processed"]
        with pytest.raises(SerializationError, match="length mismatch"):
            post_columns(impl, "record", 3, [[1, 2, 3], [1, 2]])
        assert impl.queue_length == 0
        impl.drain()
        assert impl.stats()["processed"] == before
        assert impl.invoke("get_log") == []

    def test_zero_arity_method_runs_count_times(self):
        target = Gated()
        container = ImplementationObject(target, "test.Gated")
        try:
            post_columns(container, "tick", 3, [])
            container.drain()
            assert target.get_log() == ["tick"] * 3
            assert container.stats()["processed"] == 3
        finally:
            container.dispose()


class TestCallSurface:
    """Calls reach an IO through three entry points, in one entry shape."""

    def test_three_call_entry_points(self):
        public = {
            name
            for name, value in vars(ImplementationObject).items()
            if callable(value) and not name.startswith("_")
        }
        control = {
            "drain",
            "dispose",
            "stats",
            "async_failures",
            "begin_migration",
            "abort_migration",
            "complete_migration",
        }
        assert public == control | {"enqueue_batch", "invoke", "invoke_batch"}

    def test_a_miscounted_entry_is_refused_after_the_prefix(self, impl):
        with pytest.raises(ScooppError, match="announces 2 calls"):
            impl.enqueue_batch(
                [
                    ("record", 1, None, [(("a",), {})]),
                    ("record", 2, None, [(("b",), {})]),
                    ("record", 1, [["c"]], None),
                ]
            )
        assert impl.invoke("get_log") == ["a"]

    def test_a_single_travels_as_an_entry_of_one(self, impl):
        impl.enqueue_batch(
            [
                ("record", 1, [array.array("b", [1])], None),
                ("record", 1, None, [((), {"value": 2})]),
            ]
        )
        assert impl.invoke("get_log") == [1, 2]

    def test_invoke_batch_takes_columns_or_rows(self, impl):
        reply = impl.invoke_batch("record", 3, [array.array("b", [1, 2, 3])])
        assert (reply.count, reply.errors) == (3, ())
        reply = impl.invoke_batch("record", 1, None, [((), {"value": 4})])
        assert reply.count == 1
        with pytest.raises(SerializationError, match="length mismatch"):
            impl.invoke_batch("record", 2, [[5, 6], [7]])
        assert impl.invoke("get_log") == [1, 2, 3, 4]
