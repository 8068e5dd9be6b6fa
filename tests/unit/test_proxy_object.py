"""Unit tests for grains and proxy-object generation (aggregation rules)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.impl import ImplementationObject
from repro.core.model import parallel, parallel_class_table
from repro.core.proxy_object import (
    LocalGrain,
    ProxyObject,
    RemoteGrain,
    make_parallel_class,
)
from repro.errors import GrainError, NodeLostError, ScooppError


class Sink:
    """Plain target class for grains."""

    def __init__(self):
        self.log = []
        self.lock = threading.Lock()

    def push(self, value):
        with self.lock:
            self.log.append(("push", value))

    def mark(self, value):
        with self.lock:
            self.log.append(("mark", value))

    def snapshot(self):
        with self.lock:
            return list(self.log)


@pytest.fixture
def remote_grain():
    sink = Sink()
    impl = ImplementationObject(sink, "test.Sink")
    # Long auto-flush: these tests assert exact batch boundaries.
    grain = RemoteGrain(impl, max_calls=4, flush_after_s=30.0)
    yield grain, sink
    grain.dispose()


class TestLocalGrain:
    def test_post_executes_immediately(self):
        sink = Sink()
        grain = LocalGrain(sink, "test.Sink")
        grain.post("push", (1,), {})
        assert sink.snapshot() == [("push", 1)]
        assert grain.direct_calls == 1

    def test_call_returns_value(self):
        grain = LocalGrain(Sink(), "test.Sink")
        grain.post("push", (1,), {})
        assert grain.call("snapshot", (), {}) == [("push", 1)]

    def test_flush_drain_dispose_are_noops(self):
        grain = LocalGrain(Sink(), "test.Sink")
        grain.flush()
        grain.drain()
        grain.dispose()


class TestRemoteGrainAggregation:
    def test_calls_buffer_until_max_calls(self, remote_grain):
        grain, sink = remote_grain
        for index in range(3):
            grain.post("push", (index,), {})
        assert (grain.batches, grain.singles) == (0, 0)
        grain.post("push", (3,), {})  # 4th call: batch ships
        grain.drain()
        assert sink.snapshot() == [("push", index) for index in range(4)]
        assert (grain.batches, grain.singles) == (1, 0)

    def test_method_switch_flushes_previous_run(self, remote_grain):
        grain, sink = remote_grain
        grain.post("push", (1,), {})
        grain.post("mark", ("a",), {})  # different method: push flushes first
        grain.drain()
        assert sink.snapshot() == [("push", 1), ("mark", "a")]

    def test_sync_call_flushes_and_orders(self, remote_grain):
        grain, sink = remote_grain
        grain.post("push", (1,), {})
        grain.post("push", (2,), {})
        snapshot = grain.call("snapshot", (), {})
        assert snapshot == [("push", 1), ("push", 2)]

    def test_explicit_flush_ships_partial_batch(self, remote_grain):
        grain, sink = remote_grain
        grain.post("push", (9,), {})
        grain.flush()
        grain.drain()
        assert sink.snapshot() == [("push", 9)]

    def test_max_calls_one_sends_each_call(self):
        sink = Sink()
        impl = ImplementationObject(sink, "test.Sink")
        grain = RemoteGrain(impl, max_calls=1)
        try:
            for index in range(5):
                grain.post("push", (index,), {})
            grain.drain()
            assert len(sink.snapshot()) == 5
            assert grain.singles == 5
        finally:
            grain.dispose()

    def test_program_order_across_batches(self, remote_grain):
        grain, sink = remote_grain
        expected = []
        for index in range(25):
            if index % 7 == 0:
                grain.post("mark", (index,), {})
                expected.append(("mark", index))
            else:
                grain.post("push", (index,), {})
                expected.append(("push", index))
        grain.drain()
        assert sink.snapshot() == expected

    def test_max_calls_validation(self, remote_grain):
        grain, _sink = remote_grain
        with pytest.raises(GrainError):
            RemoteGrain(grain.impl, max_calls=0)


class TestAutoFlush:
    def test_partial_batch_flushes_after_delay(self):
        """§3.1: aggregation *delays* calls; it never parks them."""
        import time

        sink = Sink()
        impl = ImplementationObject(sink, "test.Sink")
        grain = RemoteGrain(impl, max_calls=100, flush_after_s=0.01)
        try:
            grain.post("push", (1,), {})
            deadline = time.time() + 5
            while not sink.snapshot() and time.time() < deadline:
                time.sleep(0.005)
            assert sink.snapshot() == [("push", 1)]
        finally:
            grain.dispose()

    def test_burst_still_aggregates(self):
        sink = Sink()
        impl = ImplementationObject(sink, "test.Sink")
        grain = RemoteGrain(impl, max_calls=8, flush_after_s=0.5)
        try:
            for index in range(16):  # two full batches, no timer needed
                grain.post("push", (index,), {})
            grain.drain()
            assert grain.batches == 2
            assert len(sink.snapshot()) == 16
        finally:
            grain.dispose()


class TestMessageCounters:
    def test_split_tracks_kind_and_total_stays_back_compat(self, remote_grain):
        grain, sink = remote_grain
        for index in range(4):  # one full batch
            grain.post("push", (index,), {})
        grain.post("mark", ("a",), {})  # method switch -> single
        grain.flush()
        grain.drain()
        assert grain.batches == 1
        assert grain.singles == 1

    def test_singles_only_when_unaggregated(self):
        sink = Sink()
        impl = ImplementationObject(sink, "test.Sink")
        grain = RemoteGrain(impl, max_calls=1)
        try:
            for index in range(5):
                grain.post("push", (index,), {})
            grain.drain()
            assert grain.singles == 5
            assert grain.batches == 0
        finally:
            grain.dispose()


class TestAutoFlushRegression:
    def test_partial_buffer_flushes_within_deadline_without_posts(self):
        """A partial batch must ship within ~flush_after_s on its own.

        Regression guard for the sender-loop timer: exactly one post,
        then silence — the auto-flush must fire with no further posts
        nudging the condition variable.
        """
        import time

        sink = Sink()
        impl = ImplementationObject(sink, "test.Sink")
        flush_after_s = 0.02
        grain = RemoteGrain(impl, max_calls=100, flush_after_s=flush_after_s)
        try:
            started = time.monotonic()
            grain.post("push", ("only",), {})
            deadline = started + 5.0
            while not sink.snapshot() and time.monotonic() < deadline:
                time.sleep(0.002)
            elapsed = time.monotonic() - started
            assert sink.snapshot() == [("push", "only")]
            # Generous bound (scheduler jitter), but far below the 5 s
            # failure deadline: the timer, not a later flush, fired.
            assert elapsed < 2.0
            assert grain.singles == 1 and grain.batches == 0
        finally:
            grain.dispose()


class ColumnTarget:
    """Target with an annotated async method for column planning."""

    def __init__(self):
        self.rows = []
        self.lock = threading.Lock()

    def step(self, x: float, n: int):
        with self.lock:
            self.rows.append((x, n))

    def snapshot(self):
        with self.lock:
            return list(self.rows)


class _RecordingImpl:
    """Wraps an ImplementationObject, recording each entry's form."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def enqueue_batch(self, entries):
        for method, count, columns, _rows in entries:
            form = "rows" if columns is None else "columns"
            self.calls.append((form, method, count))
        self._inner.enqueue_batch(entries)


class TestColumnarAggregates:
    def _grain(self, impl):
        grain = RemoteGrain(impl, max_calls=4, flush_after_s=30.0)
        grain.columnar = True
        grain.impl_class = ColumnTarget
        return grain

    def test_homogeneous_batch_ships_columnar(self):
        target = ColumnTarget()
        impl = _RecordingImpl(ImplementationObject(target, "test.Col"))
        grain = self._grain(impl)
        try:
            for index in range(4):
                grain.post("step", (index * 1.5, index), {})
            grain.drain()
            assert ("columns", "step", 4) in impl.calls
            assert target.snapshot() == [
                (index * 1.5, index) for index in range(4)
            ]
        finally:
            grain.dispose()

    def test_kwargs_fall_back_to_row_batch(self):
        target = ColumnTarget()
        impl = _RecordingImpl(ImplementationObject(target, "test.Col"))
        grain = self._grain(impl)
        try:
            for index in range(4):
                grain.post("step", (float(index),), {"n": index})
            grain.drain()
            kinds = [kind for kind, *_rest in impl.calls]
            assert "columns" not in kinds
            assert target.snapshot() == [
                (float(index), index) for index in range(4)
            ]
        finally:
            grain.dispose()

    def test_remote_refusal_surfaces_and_is_not_resent_as_rows(self):
        from repro.errors import RemoteInvocationError

        class _RefusingImpl(_RecordingImpl):
            def enqueue_batch(self, entries):
                ((method, count, _columns, _rows),) = entries
                self.calls.append(("columns-refused", method, count))
                # The wording of RemotingHost._resolve_method through
                # the proxy's error mapping.
                raise RemoteInvocationError(
                    "remote call enqueue_batch failed with "
                    "RemotingError: ImplementationObject has no remote "
                    "method 'enqueue_batch'"
                )

        target = ColumnTarget()
        impl = _RefusingImpl(ImplementationObject(target, "test.Col"))
        grain = self._grain(impl)
        try:
            for index in range(4):
                grain.post("step", (float(index), index), {})
            with pytest.raises(ScooppError, match="no remote method") as info:
                grain.drain()
            assert isinstance(info.value.__cause__, RemoteInvocationError)
            assert grain.columnar
            assert impl.calls == [("columns-refused", "step", 4)]
            assert target.snapshot() == []
        finally:
            grain.dispose()

    def test_wire_observer_fed_per_send(self):
        observed = []
        target = ColumnTarget()
        impl = ImplementationObject(target, "test.Col")
        grain = RemoteGrain(impl, max_calls=4, flush_after_s=30.0)
        grain.wire_observer = lambda nbytes, calls: observed.append(
            (nbytes, calls)
        )
        try:
            for index in range(4):
                grain.post("step", (float(index), index), {})
            grain.drain()
            # One aggregate of 4 calls; a local impl has no wire, so the
            # byte figure is the 0 default — the call count still lands.
            assert observed == [(0, 4)]
        finally:
            grain.dispose()


class TestRemoteGrainLifecycle:
    def test_released_grain_rejects_use(self):
        impl = ImplementationObject(Sink(), "test.Sink")
        grain = RemoteGrain(impl, max_calls=2)
        grain.dispose()
        with pytest.raises(GrainError, match="released"):
            grain.post("push", (1,), {})

    def test_dispose_flushes_pending(self):
        sink = Sink()
        impl = ImplementationObject(sink, "test.Sink")
        grain = RemoteGrain(impl, max_calls=100)
        grain.post("push", (1,), {})
        grain.dispose()
        assert sink.snapshot() == [("push", 1)]

    def test_dispose_idempotent(self):
        impl = ImplementationObject(Sink(), "test.Sink")
        grain = RemoteGrain(impl, max_calls=2)
        grain.dispose()
        grain.dispose()

    def test_sender_error_surfaces_on_next_use(self):
        class BrokenImpl:
            def enqueue_batch(self, *args):
                raise ConnectionError("wire cut")

            def invoke(self, *args):
                return None

            def drain(self):
                return None

            def dispose(self):
                return None

        grain = RemoteGrain(BrokenImpl(), max_calls=1)
        grain.post("push", (1,), {})
        import time

        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                grain.post("push", (2,), {})
                time.sleep(0.01)
            except ScooppError as exc:
                assert "wire cut" in str(exc)
                break
        else:
            pytest.fail("sender error never surfaced")


class TestFaultsReachTheOpenBuffer:
    """A post that would append to an open buffer still sees every fault."""

    def test_lost_grain_rejects_post_and_call(self, remote_grain):
        grain, sink = remote_grain
        grain.post("push", (1,), {})  # opens the buffer
        lost = NodeLostError("node tcp://h:1 is gone")
        grain.mark_lost(lost)
        with pytest.raises(NodeLostError) as posted:
            grain.post("push", (2,), {})
        assert posted.value is lost
        with pytest.raises(NodeLostError):
            grain.call("snapshot", (), {})
        assert sink.snapshot() == []

    def test_recovered_post_is_retried_once_and_keeps_the_buffer(self):
        gate, in_flight = threading.Event(), threading.Event()

        class WireCut:
            def enqueue_batch(self, entries):
                in_flight.set()
                assert gate.wait(timeout=5.0)
                raise ConnectionError("wire cut")

            def dispose(self):
                pass

        sink = Sink()
        healthy = ImplementationObject(sink, "test.Sink")
        grain = RemoteGrain(WireCut(), max_calls=3, flush_after_s=30.0)
        recoveries = []

        def recoverer(failed, cause):
            recoveries.append(cause)
            failed.rebind(healthy)
            return True

        grain.recoverer = recoverer
        try:
            for value in range(3):
                grain.post("push", (value,), {})  # flushed: the send hangs
            assert in_flight.wait(timeout=5.0)
            grain.post("push", (3,), {})
            grain.post("push", (4,), {})  # both stay in the open buffer
            gate.set()
            deadline = time.monotonic() + 5.0
            while grain._sender_error is None:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            # The failure surfaces here: recovered, and this call posted
            # once, behind the two buffered calls that survived.
            grain.post("push", (5,), {})
            grain.drain()
            assert [type(cause) for cause in recoveries] == [ConnectionError]
            assert sink.snapshot() == [("push", v) for v in (3, 4, 5)]
        finally:
            gate.set()
            grain.dispose()


class FailingTuner:
    def decide_method(self, class_name, method):
        raise RuntimeError("controller state corrupt")


class RefusingImpl:
    """An IO proxy whose every asynchronous send fails."""

    def enqueue_batch(self, *args):
        raise ValueError("refused")

    def dispose(self):
        return None


class TestFailuresCount:
    def test_failing_tuner_is_counted_and_logged_once(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(RemoteGrain, "RETUNE_PERIOD_S", 0.0)
        sink = Sink()
        grain = RemoteGrain(ImplementationObject(sink, "test.Sink"), max_calls=1)
        grain.tuner = FailingTuner()
        try:
            with caplog.at_level("ERROR", logger="repro.core"):
                for value in range(3):
                    grain.post("push", (value,), {})
                grain.drain()
        finally:
            grain.dispose()
        # The posts went through on the grain's own policy.
        assert sink.snapshot() == [("push", value) for value in range(3)]
        assert grain.retune_errors == 3
        logged = [r for r in caplog.records if "autotuner" in r.getMessage()]
        assert len(logged) == 1

    def test_snapshot_merges_retune_and_quiesce_errors(
        self, plain_runtime, monkeypatch, caplog
    ):
        monkeypatch.setattr(RemoteGrain, "RETUNE_PERIOD_S", 0.0)
        tuned = RemoteGrain(
            ImplementationObject(Sink(), "test.Sink"), max_calls=1
        )
        tuned.tuner = FailingTuner()
        refused = RemoteGrain(RefusingImpl(), max_calls=1)
        try:
            plain_runtime.adopt_grain(tuned)
            plain_runtime.adopt_grain(refused)
            tuned.post("push", (1,), {})
            refused.post("push", (1,), {})
            with caplog.at_level("ERROR", logger="repro.core"):
                plain_runtime.quiesce_outboxes()  # refused's send failed
            merged = plain_runtime.metrics_snapshot()["cluster"]
            assert merged["parc.errors.retune"]["value"] == 1
            assert merged["parc.errors.quiesce"]["value"] == 1
            logged = [r for r in caplog.records if "quiescing" in r.getMessage()]
            assert len(logged) == 1
        finally:
            tuned.dispose()
            refused.dispose()


@parallel(
    name="test.proxy.Tally",
    async_methods=["bump"],
    sync_methods=["total"],
)
class Tally:
    def __init__(self, start=0):
        self.value = start

    def bump(self, by=1):
        self.value += by

    def total(self):
        return self.value


class TestGeneratedClass:
    def test_class_shape(self):
        po_class = make_parallel_class(Tally)
        assert po_class.__name__ == "TallyPO"
        assert issubclass(po_class, ProxyObject)
        assert po_class._parc_info is parallel_class_table.by_class(Tally)
        assert callable(po_class.bump)
        assert callable(po_class.total)

    def test_class_cached(self):
        assert make_parallel_class(Tally) is make_parallel_class(Tally)

    def test_non_parallel_class_rejected(self):
        class Plain:
            pass

        with pytest.raises(ScooppError):
            make_parallel_class(Plain)

    def test_bare_proxyobject_unusable(self):
        with pytest.raises(ScooppError, match="not generated"):
            ProxyObject()

    def test_end_to_end_with_runtime(self, plain_runtime):
        po_class = make_parallel_class(Tally)
        tally = po_class(10)
        tally.bump()
        tally.bump(by=5)
        assert tally.total() == 16
        assert not tally.parc_is_local
        tally.parc_release()

    def test_repr_mentions_grain_kind(self, plain_runtime):
        tally = make_parallel_class(Tally)(0)
        assert "remote grain" in repr(tally)
        tally.parc_release()
