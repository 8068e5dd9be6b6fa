"""The process's executors and timer: its only runtime threads.

Objects are logical processes multiplexed onto a few OS threads, not one
thread per mechanism.  An :class:`Executor` is a pool of ``parc-exec``
threads capped by cores.  Each node runs its mailbox runs on a pool of
its own (``Node.executor``), as the machine it stands for would; the
process's pool, :func:`executor`, runs everything else: send runs,
one-way dispatches, migrations, control ticks, delegate invocations and
liveness listeners, and the mailbox runs of an IO built outside a node.
:func:`blocking` marks a wait on whichever pool's thread makes it.
:func:`timer` (one thread, ``parc-timer``, while any call is armed)
calls each armed callback at its deadline: buffer flushes, lease
sweeps, chaos scripts, the control plane's next tick, the pools'
starvation checks.  A timer callback must not block; an owner whose
work can block submits it to an executor from the callback.  A forked
child, which inherits none of their threads, starts with a fresh pair.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import logging
import os
import threading
from collections import deque
from typing import Callable

from repro.perfmodel.clock import Clock, WallClock

logger = logging.getLogger("repro.core")


#: Runnable threads per core in each executor: a pool's cap is this
#: times the cores the process may run on, read when the pool is
#: created.  Measured (EXPERIMENTS.md §EXT-CAP): at 2 the sleep-simulated
#: cores of ``benchmarks/test_scheduler.py`` stay busy, since each node
#: has its own pool, and ``grain_churn`` holds half the parent's
#: threads; 4 holds more threads and the scheduler benchmark gains
#: nothing.
THREADS_PER_CORE = 2

#: How long runs may wait at the cap with none finishing before the
#: starvation check starts one more thread: short enough that 64 runs
#: at one user barrier meet in about 3 s, long enough that no workload
#: of the benchmark sees a start.
STARVATION_CHECK_S = 0.05


class _Here(threading.local):
    """Which executor's thread this is, and how deep in ``blocking()``.
    Class defaults: a thread of no pool reads them without a miss."""

    executor: Executor | None = None
    depth = 0


_here = _Here()


class Executor:
    """A pool of threads for mailbox and send runs.

    Sized by cores, with managed blocking:

    * at most *cap* threads are *runnable* — serving a run outside
      :func:`blocking`, or idle.  A submit that finds no idle thread
      starts one while the pool is below the cap; at the cap the run
      queues.  One start at a time: a submit starts none while a start
      is under way, and a thread that takes a run while more wait than
      threads are idle starts the next before it runs.  Under the GIL a
      busy thread is usually one waiting for the interpreter, not one
      that is blocked, so a thread per waiting run would only grow the
      pool with every burst a poster makes;
    * a run that waits on something the runtime can name — a
      synchronous call's reply, a credit stall, a migration pause —
      does so inside :func:`blocking`, which takes its thread out of
      the runnable count, so one more thread may start while runs wait;
    * blocking the runtime cannot see (a user barrier, a sleep) is
      caught by the starvation check: a run that queues at the cap arms
      the timer, and if runs still wait after ``STARVATION_CHECK_S``
      with none finished since, one more thread starts, and the check
      re-arms.  This is the paper's §4 lesson ("limiting the number of
      running threads ... produces starvation") as a contract: bounded
      threads, no starvation;
    * clients :meth:`attach` (a live mailbox; a one-way call while it
      runs) and :meth:`detach`; a thread with no work exits once the
      pool holds more threads than there are attached clients, and a
      thread that ends a run or idles above the cap exits;
    * while runs wait at the cap, a run that serves many items (a
      mailbox with a backlog) hands its thread on after each one
      (:meth:`crowded`), so every queued run gets its turn.

    A process has one pool of its own (:func:`executor`) and one per
    node it hosts.  *cap* and *timer* are test seams: by default the
    cap is ``THREADS_PER_CORE`` times the cores, and the check arms the
    process timer.
    """

    def __init__(
        self, cap: int | None = None, timer: Timer | None = None
    ) -> None:
        if cap is None:
            cap = THREADS_PER_CORE * len(os.sched_getaffinity(0))
        self.cap = cap
        self._timer = timer
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._exited = threading.Condition(self._lock)
        self._runs: deque = deque()  # (callable, attached) not yet taken
        self._threads = 0
        self._starting = False  # a thread is started but not serving yet
        self._idle = 0  # threads parked in _work.wait()
        self._blocked = 0  # threads inside blocking()
        self._attached = 0
        self._detaching = 0  # detach() calls waiting for idle threads
        self._leaving: list = []  # exited threads those calls will join
        self._finished = 0  # runs done, ever
        self._check: TimerCall | None = None  # the armed starvation check
        self._checks = 0  # checks armed, ever: tells a stale call apart
        self._finished_at_arm = 0
        self._starvation_starts = 0
        self._blocking = _Blocking(self)

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
            if not self._may_start_locked():
                return
        self._start_thread()

    def stats(self) -> dict:
        """The pool now: cap, threads, idle, runs waiting, threads inside
        :func:`blocking`, and the threads the starvation check started."""
        with self._lock:
            return {
                "cap": self.cap,
                "threads": self._threads,
                "idle": self._idle,
                "waiting": len(self._runs),
                "blocked": self._blocked,
                "starvation_starts": self._starvation_starts,
            }

    def pressure(self) -> float:
        """The backlog read against the cap, for a credit grantor: 1.0
        at four times the cap.  Unlocked: a gauge read per response."""
        return len(self._runs) / (4 * self.cap)

    def crowded(self) -> bool:
        """Whether runs wait at the cap, so a long run should hand its
        thread on.  Unlocked: read once per mailbox entry."""
        return bool(self._runs) and self._threads - self._blocked >= self.cap

    def _may_start_locked(self) -> bool:
        """Claim the start of a thread for waiting runs, if one may start.

        At the cap the runs queue, and the starvation check is armed.
        """
        if self._starting:
            return False  # the thread on its way starts the next one
        if self._threads - self._blocked >= self.cap:
            self._arm_check_locked()
            return False
        self._starting = True
        self._threads += 1
        return True

    def _start_thread(self) -> None:
        threading.Thread(
            target=self._serve, name="parc-exec", daemon=True
        ).start()

    def _serve(self) -> None:
        _here.executor, _here.depth = self, 0
        with self._lock:
            self._starting = False
            while True:
                if self._runs:
                    run, attached = self._runs.popleft()
                    more = self._idle < len(self._runs) and self._may_start_locked()
                    check = None
                    if not self._runs:
                        check, self._check = self._check, None  # none starve
                    self._lock.release()
                    try:
                        if check is not None:
                            check.cancel()
                        if more:
                            self._start_thread()
                        run()
                    except Exception:  # noqa: BLE001 - the thread outlives its work
                        logger.exception("executor run %r failed", run)
                    finally:
                        self._lock.acquire()
                    self._finished += 1
                    if attached:
                        self._attached -= 1
                    if self._threads - self._blocked <= self.cap:
                        continue
                elif (
                    self._threads <= self._attached
                    and self._threads - self._blocked <= self.cap
                ):
                    self._idle += 1
                    self._work.wait()
                    self._idle -= 1
                    if self._detaching:
                        # Taking a run leaves no idle thread to wait for either.
                        self._exited.notify_all()
                    continue
                self._threads -= 1
                if self._runs:
                    self._arm_check_locked()
                if self._detaching:
                    self._leaving.append(threading.current_thread())
                    self._exited.notify_all()
                return

    def _enter_blocking(self) -> None:
        _here.depth += 1
        if _here.depth > 1:
            return
        with self._lock:
            self._blocked += 1
            start = self._idle < len(self._runs) and self._may_start_locked()
        if start:
            self._start_thread()

    def _exit_blocking(self) -> None:
        _here.depth -= 1
        if _here.depth:
            return
        with self._lock:
            self._blocked -= 1

    def _arm_check_locked(self) -> None:
        if self._check is not None:
            return
        self._checks += 1
        self._finished_at_arm = self._finished
        clock = self._timer if self._timer is not None else timer()
        self._check = clock.call_later(
            STARVATION_CHECK_S,
            functools.partial(self._check_starvation, self._checks),
        )

    def _check_starvation(self, armed: int) -> None:
        """The timer's call: start a thread if the queued runs starve."""
        with self._lock:
            if self._check is None or armed != self._checks:
                return  # cancelled: the queue drained meanwhile
            self._check = None
            if self._idle >= len(self._runs):
                return
            if self._starting or self._finished != self._finished_at_arm:
                self._arm_check_locked()  # progress: look again later
                return
            self._starting = True
            self._threads += 1
            self._starvation_starts += 1
            self._arm_check_locked()
        self._start_thread()


def blocking() -> contextlib.AbstractContextManager:
    """Context for a wait whose length another run or user code sets.

    On an executor's thread it takes the thread out of its pool's
    runnable count while the block lasts, so a run waiting for a thread
    need not wait for this one; nested uses count once.  On any other
    thread it does nothing.
    """
    pool = _here.executor
    return _NOT_OURS if pool is None else pool._blocking


class _Blocking:
    """:func:`blocking` on one of an executor's threads."""

    __slots__ = ("executor",)

    def __init__(self, executor: Executor) -> None:
        self.executor = executor

    def __enter__(self) -> None:
        self.executor._enter_blocking()

    def __exit__(self, *exc_info: object) -> None:
        self.executor._exit_blocking()


_NOT_OURS = contextlib.nullcontext()


class TimerCall:
    """One callback armed on a :class:`Timer`."""

    __slots__ = ("timer", "fn")

    def __init__(self, timer: Timer, fn: Callable[[], None] | None) -> None:
        self.timer, self.fn = timer, fn

    def cancel(self) -> None:
        """Keep the callback from starting; if it is running on another
        thread, wait until it returns.  A cancel that leaves nothing
        armed also waits for the timer's idle thread to end."""
        timer, me = self.timer, threading.current_thread()
        retired = None
        with timer._lock:
            if self.fn is not None:
                self.fn = None  # its heap entry is skipped when due
                timer._armed -= 1
            while timer._running is self and timer._runner is not me:
                timer._ran.wait()
            thread = timer._thread
            if thread and timer._parked is thread and not timer._armed:
                retired, timer._thread, timer._parked = thread, None, None
                timer._wake.notify()
        if retired is not None:
            retired.join()


class Timer:
    """The process's one clock: callbacks in deadline order.

    :meth:`run_due` calls every callback whose deadline has passed, in
    deadline order and, on ties, in arm order; a raising one is logged
    and the next still runs.  Callbacks run with the timer unlocked, so
    they may arm or cancel calls.  The process timer (:func:`timer`)
    runs a thread, ``parc-timer``, while any call is armed: the first
    call armed starts it, and it ends once nothing is left.  The thread
    runs :meth:`run_due`, then sleeps until the earliest deadline.  An
    injected *clock* is a test seam: that timer starts no thread, and
    the test steps it by advancing the clock and calling
    :meth:`run_due`.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self._threaded = clock is None  # no thread on a test clock
        self._thread: threading.Thread | None = None
        self._parked: threading.Thread | None = None  # asleep till a deadline
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._ran = threading.Condition(self._lock)
        self._heap: list = []  # (deadline, seq, call), cancelled ones too
        self._armed = 0  # calls in the heap not cancelled
        self._seq = itertools.count()
        self._running: TimerCall | None = None
        self._runner: threading.Thread | None = None

    def call_at(self, deadline: float, fn: Callable[[], None]) -> TimerCall:
        """Call *fn* once the clock reads *deadline*; never blocks."""
        call = TimerCall(self, fn)
        with self._lock:
            heapq.heappush(self._heap, (deadline, next(self._seq), call))
            self._armed += 1
            if self._threaded and self._thread is None:
                self._thread = threading.Thread(
                    target=self._serve, name="parc-timer", daemon=True
                )
                self._thread.start()
            elif self._heap[0][2] is call:
                self._wake.notify()
        return call

    def call_later(self, delay_s: float, fn: Callable[[], None]) -> TimerCall:
        return self.call_at(self.clock.now() + delay_s, fn)

    def run_due(self) -> None:
        """Call every callback that is due, on the calling thread."""
        with self._lock:
            self._run_due_locked()

    def _run_due_locked(self) -> None:
        while self._heap and self._heap[0][0] <= self.clock.now():
            call = heapq.heappop(self._heap)[2]
            fn, call.fn = call.fn, None
            if fn is None:
                continue  # cancelled
            self._armed -= 1
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
        me = threading.current_thread()
        with self._lock:
            while self._thread is me:  # a cancel may retire the thread
                if not self._armed:
                    self._heap.clear()  # cancelled calls only
                    self._thread = None
                    return
                delay = self._heap[0][0] - self.clock.now()
                if delay > 0:
                    self._parked = me
                    self._wake.wait(delay)
                    if self._parked is me:
                        self._parked = None
                else:
                    self._run_due_locked()


# Neither starts a thread until it is first given work.
_executor = Executor()
_timer = Timer()


def executor() -> Executor:
    """The process's executor."""
    return _executor


def timer() -> Timer:
    """The process's timer."""
    return _timer


def _forget() -> None:
    global _executor, _timer
    _executor, _timer = Executor(), Timer()


os.register_at_fork(after_in_child=_forget)
