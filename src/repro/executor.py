"""The process's executor and timer: its only runtime threads.

Objects are logical processes multiplexed onto a few OS threads, not one
thread per mechanism.  :func:`executor` (threads ``parc-exec``) runs
mailbox and send runs, one-way dispatches, migrations, control ticks,
delegate invocations and liveness listeners.  :func:`timer` (one thread,
``parc-timer``) calls each armed callback at its deadline: buffer
flushes, lease sweeps, chaos scripts, the control plane's next tick.  A
timer callback must not block; an owner whose work can block submits it
to the executor from the callback.  A forked child, which inherits
none of their threads, starts with a fresh pair.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import os
import threading
from collections import deque
from typing import Callable

from repro.perfmodel.clock import Clock, WallClock

logger = logging.getLogger("repro.core")


class _Executor:
    """The process's pool of threads for mailbox runs and one-way calls.

    Sized by demand, with no cap and no idle timeout:

    * queued work never waits for a thread to free up — a grain blocked
      in user code or in a nested synchronous call holds up no other
      grain: while more runs wait than threads are idle, a thread is
      being started.  One at a time: a submit that finds no idle thread
      starts one unless a start is under way, and a thread that takes a
      run while more wait than threads are idle starts the next before
      it runs.  Under the GIL a busy thread is usually one waiting for
      the interpreter, not one that is blocked, so starting a thread
      per waiting run would grow the pool to every burst a poster
      makes;
    * clients :meth:`attach` (a live mailbox; a one-way call while it
      runs) and :meth:`detach`; a thread with no work exits once the
      pool holds more threads than there are attached clients.

    A mailbox has at most one run in flight, so the threads track the
    grains that are running or blocked at once, and never outnumber the
    live grains for long.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._exited = threading.Condition(self._lock)
        self._runs: deque = deque()  # (callable, attached) not yet taken
        self._threads = 0
        self._starting = False  # a thread is started but not serving yet
        self._idle = 0  # threads parked in _work.wait()
        self._attached = 0
        self._detaching = 0  # detach() calls waiting for idle threads
        self._leaving: list = []  # exited threads those calls will join

    def attach(self) -> None:
        with self._lock:
            self._attached += 1

    def detach(self) -> None:
        """Drop one client; wait until the idle threads it left over exit.

        Only *idle* surplus threads are waited for: a busy one exits by
        itself when its work is done, and may be the caller's own.
        """
        with self._lock:
            self._attached -= 1
            if not (self._idle and self._threads > self._attached):
                return
            self._detaching += 1
            while self._idle and self._threads > self._attached:
                # Wake the surplus only: waking every idle thread on each
                # detach made releasing n grains cost O(n^2) wake-ups.
                self._work.notify(self._threads - self._attached)
                self._exited.wait()
            self._detaching -= 1
            leaving, self._leaving = self._leaving, []
        me = threading.current_thread()
        for thread in leaving:
            if thread is not me:
                thread.join()

    def submit(self, run: Callable[[], None], attach: bool = False) -> None:
        """Run *run* on a pool thread; *attach* it as a client until done."""
        with self._lock:
            if attach:
                self._attached += 1
            self._runs.append((run, attach))
            # Parked threads outnumbering the runs not yet taken means
            # one of them is free for this run.
            if self._idle >= len(self._runs):
                self._work.notify()
                return
            if self._starting:
                return  # the thread on its way starts the next one
            self._starting = True
            self._threads += 1
        self._start_thread()

    def _start_thread(self) -> None:
        threading.Thread(
            target=self._serve, name="parc-exec", daemon=True
        ).start()

    def load(self) -> tuple[int, int]:
        """(runs submitted but not yet taken by a thread, threads)."""
        with self._lock:
            return len(self._runs), self._threads

    def _serve(self) -> None:
        with self._lock:
            self._starting = False
            while True:
                if self._runs:
                    run, attached = self._runs.popleft()
                    more = self._idle < len(self._runs) and not self._starting
                    if more:
                        self._starting = True
                        self._threads += 1
                    self._lock.release()
                    try:
                        if more:
                            self._start_thread()
                        run()
                    except Exception:  # noqa: BLE001 - the thread outlives its work
                        logger.exception("executor run %r failed", run)
                    finally:
                        self._lock.acquire()
                    if attached:
                        self._attached -= 1
                    continue
                if self._threads > self._attached:
                    self._threads -= 1
                    if self._detaching:
                        self._leaving.append(threading.current_thread())
                        self._exited.notify_all()
                    return
                self._idle += 1
                self._work.wait()
                self._idle -= 1
                if self._detaching:
                    # Taking a run leaves no idle thread to wait for either.
                    self._exited.notify_all()


class TimerCall:
    """One callback armed on a :class:`Timer`."""

    __slots__ = ("timer", "fn")

    def __init__(self, timer: Timer, fn: Callable[[], None] | None) -> None:
        self.timer, self.fn = timer, fn

    def cancel(self) -> None:
        """Keep the callback from starting; if it is running on another
        thread, wait until it returns."""
        timer, me = self.timer, threading.current_thread()
        with timer._lock:
            self.fn = None
            while timer._running is self and timer._runner is not me:
                timer._ran.wait()


class Timer:
    """The process's one clock: callbacks in deadline order.

    :meth:`run_due` calls every callback whose deadline has passed, in
    deadline order and, on ties, in arm order; a raising one is logged
    and the next still runs.  Callbacks run with the timer unlocked, so
    they may arm or cancel calls.  The process timer (:func:`timer`)
    starts its thread, ``parc-timer``, at the first call armed; the
    thread runs :meth:`run_due`, then sleeps until the earliest
    deadline.  An injected *clock* is a test seam: that timer starts no
    thread, and the test steps it by advancing the clock and calling
    :meth:`run_due`.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self._started = clock is not None  # no thread on a test clock
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._ran = threading.Condition(self._lock)
        self._heap: list = []  # (deadline, seq, call)
        self._seq = itertools.count()
        self._running: TimerCall | None = None
        self._runner: threading.Thread | None = None

    def call_at(self, deadline: float, fn: Callable[[], None]) -> TimerCall:
        """Call *fn* once the clock reads *deadline*; never blocks."""
        call = TimerCall(self, fn)
        with self._lock:
            heapq.heappush(self._heap, (deadline, next(self._seq), call))
            if not self._started:
                self._started = True
                threading.Thread(
                    target=self._serve, name="parc-timer", daemon=True
                ).start()
            elif self._heap[0][2] is call:
                self._wake.notify()
        return call

    def call_later(self, delay_s: float, fn: Callable[[], None]) -> TimerCall:
        return self.call_at(self.clock.now() + delay_s, fn)

    def run_due(self) -> None:
        """Call every callback that is due, on the calling thread."""
        with self._lock:
            while self._heap and self._heap[0][0] <= self.clock.now():
                call = heapq.heappop(self._heap)[2]
                fn = call.fn
                if fn is None:
                    continue  # cancelled
                self._running, self._runner = call, threading.current_thread()
                self._lock.release()
                try:
                    fn()
                except Exception:  # noqa: BLE001 - the timer serves every owner
                    logger.exception("timer callback %r failed", fn)
                finally:
                    self._lock.acquire()
                    self._running = self._runner = None
                    self._ran.notify_all()

    def _serve(self) -> None:
        while True:
            self.run_due()
            with self._lock:
                if not self._heap:
                    self._wake.wait()
                elif self._heap[0][0] > self.clock.now():
                    self._wake.wait(self._heap[0][0] - self.clock.now())


# Neither starts a thread until it is first given work.
_executor = _Executor()
_timer = Timer()


def executor() -> _Executor:
    """The process's executor."""
    return _executor


def timer() -> Timer:
    """The process's timer."""
    return _timer


def _forget() -> None:
    global _executor, _timer
    _executor, _timer = _Executor(), Timer()


os.register_at_fork(after_in_child=_forget)
