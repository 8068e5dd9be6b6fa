"""The process timer's contract, stepped in virtual time.

A :class:`~repro.executor.Timer` on a
:class:`~repro.perfmodel.clock.VirtualClock` starts no thread; each test
advances the clock and calls :meth:`~repro.executor.Timer.run_due`, the
same step the ``parc-timer`` thread runs.  Nothing sleeps.
"""

from __future__ import annotations

import threading

from repro.executor import Timer
from repro.perfmodel.clock import VirtualClock


def _timer() -> tuple[Timer, VirtualClock]:
    clock = VirtualClock()
    return Timer(clock=clock), clock


class TestOrder:
    def test_deadline_order_with_ties_in_arm_order(self):
        timer, clock = _timer()
        fired: list[str] = []
        for name, deadline in (("c", 3.0), ("a1", 1.0), ("b", 2.0), ("a2", 1.0)):
            timer.call_at(deadline, lambda name=name: fired.append(name))
        clock.advance_to(1.5)
        timer.run_due()
        assert fired == ["a1", "a2"]
        clock.advance_to(10.0)
        timer.run_due()
        assert fired == ["a1", "a2", "b", "c"]

    def test_nothing_runs_before_its_deadline(self):
        timer, clock = _timer()
        fired: list[int] = []
        timer.call_later(1.0, lambda: fired.append(1))
        clock.advance(0.999)
        timer.run_due()
        assert fired == []
        clock.advance(0.001)
        timer.run_due()
        assert fired == [1]

    def test_an_injected_clock_starts_no_thread(self):
        before = set(threading.enumerate())
        timer, clock = _timer()
        timer.call_at(0.0, lambda: None)
        started = set(threading.enumerate()) - before
        assert not [t for t in started if t.name == "parc-timer"]


class TestCancel:
    def test_cancel_before_due(self):
        timer, clock = _timer()
        fired: list[str] = []
        call = timer.call_at(1.0, lambda: fired.append("cancelled"))
        timer.call_at(1.0, lambda: fired.append("kept"))
        call.cancel()
        clock.advance(2.0)
        timer.run_due()
        assert fired == ["kept"]

    def test_cancel_from_inside_the_callback_returns(self):
        timer, clock = _timer()
        calls: list = []
        calls.append(timer.call_at(1.0, lambda: calls[0].cancel()))
        clock.advance(1.0)
        timer.run_due()
        assert calls[0].fn is None

    def test_cancel_waits_for_the_running_callback(self):
        timer, clock = _timer()
        entered, leave = threading.Event(), threading.Event()
        finished: list[bool] = []

        def slow() -> None:
            entered.set()
            leave.wait(10)
            finished.append(True)

        call = timer.call_at(0.0, slow)
        stepper = threading.Thread(target=timer.run_due)
        stepper.start()
        assert entered.wait(10)
        canceller = threading.Thread(target=call.cancel)
        canceller.start()
        canceller.join(0.05)
        assert canceller.is_alive()  # still inside slow()
        leave.set()
        canceller.join(10)
        stepper.join(10)
        assert not canceller.is_alive() and not stepper.is_alive()
        assert finished == [True]


class TestCallbacks:
    def test_rearm_from_inside_a_callback(self):
        timer, clock = _timer()
        fired: list[float] = []

        def tick() -> None:
            fired.append(clock.now())
            if len(fired) < 3:
                timer.call_later(1.0, tick)

        timer.call_at(1.0, tick)
        for _ in range(5):
            clock.advance(1.0)
            timer.run_due()
        assert fired == [1.0, 2.0, 3.0]

    def test_a_callback_due_now_armed_inside_a_step_runs_in_that_step(self):
        timer, clock = _timer()
        fired: list[str] = []
        timer.call_at(
            1.0,
            lambda: timer.call_at(1.0, lambda: fired.append("armed late")),
        )
        clock.advance(1.0)
        timer.run_due()
        assert fired == ["armed late"]

    def test_a_raising_callback_is_logged_and_the_next_still_runs(self, caplog):
        timer, clock = _timer()
        fired: list[str] = []

        def boom() -> None:
            raise RuntimeError("callback failed")

        timer.call_at(1.0, boom)
        timer.call_at(1.0, lambda: fired.append("next"))
        clock.advance(1.0)
        with caplog.at_level("ERROR", logger="repro.core"):
            timer.run_due()
        assert fired == ["next"]
        errors = [r for r in caplog.records if r.exc_info]
        assert len(errors) == 1
        assert "callback failed" in str(errors[0].exc_info[1])
