"""Implementation objects: the active-object container for user instances.

§3.1: parallel objects are "active objects ... having its own thread of
control".  An :class:`ImplementationObject` hosts one user instance (the
IO of Fig. 3) behind a mailbox: calls — single or aggregated — execute
strictly in arrival order, one at a time, which is what makes SCOOPP's
asynchronous invocations safe without user locking.

The thread of control is *logical*.  A mailbox owns no OS thread; when
work arrives it schedules one *run* on its node's executor
(``Node.executor``; the process's :func:`repro.executor.executor` for
an IO built outside a node), and the run executes entries until the
mailbox is empty.  Every grain of a node is multiplexed onto that one
pool, whose threads are capped by cores: a run that waits for a nested
call or a migration pause does so in :func:`repro.executor.blocking`,
so another thread may take the next grain's run.

In ParC++ this role needed an explicit server object (SO) with a message
loop; in ParC#/here "the C# remoting [the remoting host] implements this
loop" for the *transport*, and the container supplies only the
active-object queue (§3.2: "The ParC# implementation no longer requires
SO objects").

The mailbox itself (:class:`_IOMailbox`) is one FIFO per grain and where
admission control lives: an optional depth bound with fail-fast
rejection (:class:`~repro.errors.OverloadError`) once it is full.
Unbounded FIFO — the paper's model — remains the default.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import logging
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.errors import OverloadError, ScooppError, SerializationError
from repro.executor import Executor, blocking, executor
from repro.remoting import MarshalByRefObject
from repro.remoting.messages import ReturnBatch
from repro.serialization.codec import pack_result_column
from repro.telemetry.context import current_context
from repro.telemetry.tracer import current_tracer_var, get_global_tracer

logger = logging.getLogger("repro.core")

#: The node whose implementation object is executing on this thread.
#: Parallel objects created *inside* a parallel method are placed by the
#: executing node's object manager (they originate there), not by node 0's.
current_node: contextvars.ContextVar[Any] = contextvars.ContextVar(
    "parc_current_node", default=None
)

#: The implementation object whose method is executing on this thread
#: (used for dependence-graph labelling of nested creations).
executing_impl: contextvars.ContextVar[Any] = contextvars.ContextVar(
    "parc_executing_impl", default=None
)


class MailboxMigratedError(ScooppError):
    """Internal signal: this mailbox's grain moved to another node.

    Raised by :meth:`_IOMailbox.put` after a completed migration;
    :class:`ImplementationObject` catches it and forwards the work to
    the grain's new home, so callers never see it.
    """


@dataclass
class _Task:
    """One queued invocation."""

    method: str
    args: tuple
    kwargs: dict
    # What a synchronous caller whose task queued waits on.  Every queued
    # synchronous task has one (migration replay and forwarding tell sync
    # from async by it); a task executed inline needs none.
    done: threading.Event | None = None
    result: Any = None
    error: BaseException | None = None
    # Trace context captured where the task was posted (the dispatch
    # thread serving the remote call, or the local caller).  Re-activated
    # on the executing thread so the io span chains to its remote parent.
    trace: Any = None


@dataclass(slots=True, eq=False)
class _Aggregate:
    """One asynchronous mailbox entry: the ``processN`` parameter array.

    *count* consecutive asynchronous invocations of one method sharing one
    trace context: the decoded argument *columns*, or ``[(args, kwargs),
    ...]`` *rows* for keyword arguments or mixed arity.  No caller waits
    on them, so the run executes the entry as a plain loop over the
    columns (:meth:`ImplementationObject._execute_aggregate`), and
    forwarding and migration replay pass it on as it arrived
    (:meth:`wire`); rows and :class:`_Task` objects are built only for
    traced execution.
    """

    method: str
    count: int
    trace: Any
    columns: Sequence | None = None
    rows: list | None = None

    def __len__(self) -> int:
        return self.count

    def calls(self) -> Iterator[tuple[tuple, dict]]:
        """Each call's ``(args, kwargs)``, built from the columns as drawn."""
        if self.columns is None:
            return iter(self.rows)
        columns = self.columns  # positional only: every kwargs is empty
        args = zip(*columns) if columns else itertools.repeat((), self.count)
        return zip(args, itertools.repeat({}))

    def __iter__(self) -> Iterator[_Task]:
        for args, kwargs in self.calls():
            yield _Task(
                method=self.method, args=args, kwargs=kwargs, trace=self.trace
            )

    def wire(self) -> tuple:
        """The ``enqueue_batch`` entry that carries this aggregate on."""
        return (self.method, self.count, self.columns, self.rows)


def _checked_entry(
    method: str, count: int, columns: Sequence | None, rows: list | None,
    trace: Any,
) -> _Aggregate:
    """One arrived ``(method, count, columns, rows)`` entry, shape checked.

    Ragged columns raise :class:`SerializationError` and rows that do
    not number *count* raise :class:`ScooppError`, before anything of
    the entry is admitted.
    """
    if columns is not None:
        if any(len(column) != count for column in columns):
            raise SerializationError(
                f"columnar batch length mismatch: header says {count} calls"
            )
        return _Aggregate(method, count, trace, columns=columns)
    if rows is None or len(rows) != count:
        raise ScooppError(
            f"entry for {method!r} announces {count} calls, carries "
            f"{None if rows is None else len(rows)}"
        )
    return _Aggregate(method, count, trace, rows=rows)


#: A mailbox entry: an asynchronous aggregate, or the task list of a
#: synchronous call / ``invoke_batch`` whose callers wait on the events.
_Entry = _Aggregate | list[_Task]


class _IOMailbox:
    """One FIFO per grain, optionally bounded, served by executor runs.

    Entries are *batches* (an :class:`_Aggregate` or a list of
    :class:`_Task`): an aggregated ``processN`` message stays one entry,
    so its calls execute back-to-back exactly as Fig. 7 requires.
    Entries drain in arrival order, which is what lets a synchronous
    call posted after asynchronous ones observe their effects.
    *execute* runs one entry; it is called on a thread of *pool* (the
    process's executor unless the IO's node gives its own).

    ``depth`` bounds the queue in *tasks* (0 = unbounded, the paper's
    semantics).  An entry that would overfill it is rejected with
    :class:`OverloadError` — admission control happens here, on the
    dispatch thread serving the remote ``enqueue_batch``, so the typed
    error travels back to the caller synchronously.  An empty queue admits one
    entry of any size, so an aggregate larger than ``depth`` is served
    rather than shed forever; the bound is therefore ``depth`` plus one
    entry.

    ``_scheduled`` means a run is queued on, or running in, the
    executor.  Whoever finds work waiting and the flag clear sets it and
    submits the run (:meth:`put`, :meth:`release_claim`,
    :meth:`abort_migration`); the run clears it under the same lock as
    its last emptiness check, so work is never left without a run and no
    mailbox ever has two.  ``_active`` covers every task of the entry the
    run is executing, so ``drain()`` — queue empty, nothing active,
    nothing scheduled — never returns while a dequeued batch still runs.

    ``_idle`` is notified only when someone waits on it: every wait
    (:meth:`drain`, :meth:`begin_migration`) counts itself in
    ``_idle_waiters`` under the lock the notifiers hold, so a claim
    release or a run end with no waiter skips the notify.
    """

    def __init__(
        self,
        execute: Callable[[_Entry], None],
        depth: int = 0,
        pool: Executor | None = None,
    ) -> None:
        self.depth = depth
        self._execute = execute
        self._pool = pool if pool is not None else executor()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._idle_waiters = 0  # threads parked in _wait_idle_locked
        self._resumed = threading.Condition(self._lock)  # migration ended
        self._entries: deque[_Entry] = deque()
        self._queued = 0  # tasks across queued entries
        self._active = 0  # tasks dequeued but not yet finished
        self._inline_claims = 0  # sync fast-path calls executing inline
        self._scheduled = False
        self._stopped = False
        self._migrating = False  # paused for state extraction
        self._migrated = False  # grain lives elsewhere now
        self._attached = True
        self._pool.attach()

    def put(self, method: str, tasks: _Entry) -> None:
        """Admit one entry (single call or aggregate batch).

        Raises :class:`OverloadError` when the bounded queue cannot hold
        the entry, :class:`ScooppError` after :meth:`stop`.
        """
        with self._lock:
            # A migration in progress parks admitters until the grain's
            # fate is known: resumed here (abort) or forwarded to its
            # new home (complete).
            while self._migrating:
                with blocking():
                    self._resumed.wait()
            if self._migrated:
                raise MailboxMigratedError("mailbox migrated away")
            if self._stopped:
                raise ScooppError("mailbox is disposed")
            if (
                self.depth
                and self._queued
                and self._queued + len(tasks) > self.depth
            ):
                raise OverloadError(
                    f"mailbox is full ({self._queued}/{self.depth} "
                    f"queued); call to {method!r} shed"
                )
            self._entries.append(tasks)
            self._queued += len(tasks)
            # An inline claim schedules the run when it releases.
            if self._scheduled or self._inline_claims:
                return
            self._scheduled = True
        self._submit_run()

    def _submit_run(self) -> None:
        # A fresh context per run: context variables one grain sets stay
        # with that grain, as they did when each grain had its own thread.
        self._pool.submit(
            functools.partial(contextvars.Context().run, self._run)
        )

    def _run(self) -> None:
        """Execute entries in arrival order until none is left.

        A migration pause ends the run after the entry in hand: the
        entries stay queued for :meth:`begin_migration` to extract.
        While other runs wait at the pool's cap, the run takes one
        entry and goes to the back of the queue, so a grain with a long
        backlog does not hold a thread the others (or a migration
        waiting for this run to end) need.
        """
        count = 0
        while True:
            with self._lock:
                self._active -= count  # the entry just executed
                if self._migrating or not self._entries:
                    # Before a drain can see the run over: a dispose()
                    # that follows waits for this thread's way back.
                    self._pool.run_ends()
                    self._scheduled = False
                    self._notify_idle_locked()
                    return
                if count and self._pool.crowded():
                    break  # still scheduled: the resubmitted run goes on
                batch = self._entries.popleft()
                count = len(batch)
                self._queued -= count
                self._active += count
            self._execute(batch)
        self._submit_run()

    def try_claim_idle(self) -> bool:
        """Claim the execution slot iff the mailbox is completely idle.

        The sync fast path runs a call inline on the caller's thread;
        that preserves FIFO order only when nothing is queued, nothing
        is executing and no run is scheduled.  While the claim is held,
        :meth:`put` queues without scheduling, and drain/migration wait
        exactly as for a run.  Balance with :meth:`release_claim`.
        """
        with self._lock:
            if (
                self._stopped
                or self._migrating
                or self._migrated
                or self._scheduled
                or self._inline_claims
                or self._queued
            ):
                return False
            self._inline_claims += 1
            return True

    def release_claim(self) -> None:
        """Release a :meth:`try_claim_idle` slot; serve what queued behind it."""
        with self._lock:
            self._inline_claims -= 1
            if self._inline_claims or self._migrating or not self._entries:
                self._notify_idle_locked()
                return
            self._scheduled = True
        self._submit_run()

    def drain(self) -> None:
        with self._lock:
            while (
                self._active
                or self._inline_claims
                or self._queued
                or self._scheduled
                or self._migrating
            ):
                self._wait_idle_locked()

    def _wait_idle_locked(self) -> None:
        self._idle_waiters += 1
        try:
            with blocking():
                self._idle.wait()
        finally:
            self._idle_waiters -= 1

    def _notify_idle_locked(self) -> None:
        if self._idle_waiters:
            self._idle.notify_all()

    def stop(self) -> None:
        """Refuse new work; what is already queued still runs."""
        with self._lock:
            self._stopped = True

    def dispose(self, wait: bool = True) -> None:
        """Stop, wait for the queued work (if *wait*), leave the executor."""
        self.stop()
        if wait:
            self.drain()
        self._detach()

    def _detach(self) -> None:
        with self._lock:
            attached, self._attached = self._attached, False
        if attached:
            self._pool.detach()

    # -- live migration ----------------------------------------------------

    def begin_migration(self) -> list[_Entry]:
        """Pause the mailbox and extract every queued entry.

        Blocks new admissions, waits out the run executing right now (it
        finishes its entry on this node — executing work is never
        stolen — and returns), then removes all queued entries in
        arrival order and returns them.  Once this returns, nothing
        executes and the hosted instance's state is stable, so it is
        safe to serialize.

        The caller must finish with :meth:`complete_migration` or
        :meth:`abort_migration`.
        """
        with self._lock:
            if self._stopped or self._migrated:
                raise ScooppError("mailbox is disposed")
            if self._migrating:
                raise ScooppError("migration already in progress")
            self._migrating = True
            while self._scheduled or self._inline_claims:
                self._wait_idle_locked()
            entries = list(self._entries)
            self._entries.clear()
            self._queued = 0
            return entries

    def abort_migration(self, entries: list[_Entry]) -> None:
        """Requeue the extracted entries and resume normal service.

        Admissions were parked since :meth:`begin_migration`, so the
        queue is still empty and *entries* keep their original order.
        """
        with self._lock:
            self._entries.extend(entries)
            self._queued += sum(len(batch) for batch in entries)
            self._migrating = False
            self._resumed.notify_all()
            self._notify_idle_locked()
            if not self._entries:
                return
            self._scheduled = True
        self._submit_run()

    def complete_migration(self) -> None:
        """The grain lives elsewhere now: unblock everyone.

        Parked admitters raise :class:`MailboxMigratedError` (the
        implementation object forwards their work), drain waiters fall
        through to the forward path, and the mailbox leaves the executor.
        """
        with self._lock:
            self._migrated = True
            self._migrating = False
            self._stopped = True
            self._resumed.notify_all()
            self._notify_idle_locked()
        self._detach()

    @property
    def migrated(self) -> bool:
        with self._lock:
            return self._migrated

    @property
    def stopped(self) -> bool:
        with self._lock:
            return self._stopped

    def queued_count(self) -> int:
        with self._lock:
            return self._queued

    def queue_length(self) -> int:
        with self._lock:
            return self._queued + self._active + self._inline_claims


class ImplementationObject(MarshalByRefObject):
    """Hosts a user instance; executes its methods serially in FIFO order.

    Remote surface (called through the PO's transparent proxy):

    * ``enqueue_batch(entries)`` — post asynchronous work, each entry
      ``(method, count, columns | None, rows | None)`` one aggregate (the
      paper's ``processN``, Fig. 7) executed back-to-back; a single call
      is an entry of one;
    * ``invoke(method, args, kwargs)`` — synchronous call: queued behind
      pending work, result returned (program order is preserved);
    * ``invoke_batch(method, count, columns, rows)`` — one such entry,
      synchronous: one ``returnN`` reply carries every result;
    * ``drain()`` — block until the mailbox is empty;
    * ``dispose()`` — refuse new work and drain what is queued;
    * ``stats()`` — counters for the object manager.

    *mailbox_depth* (threaded from ``ParcConfig``, off by default)
    bounds the mailbox; a call that would overfill it fails fast with
    :class:`~repro.errors.OverloadError`.
    """

    def __init__(
        self,
        instance: Any,
        class_name: str,
        on_execution: Callable[[str, float, str], None] | None = None,
        node: Any = None,
        mailbox_depth: int = 0,
    ) -> None:
        self.instance = instance
        self.class_name = class_name
        self.node = node
        # Proxy to the grain's new home after a migrate-out; while set,
        # this object is a forwarding shell for straggler callers.
        self._forward: Any = None
        # Observer called as (class_name, elapsed_s, method) after each
        # execution; feeds the grain controller's per-method statistics.
        self._on_execution = on_execution
        self._on_execution_failed = False
        self._stats_lock = threading.Lock()
        self._processed = 0
        self._inline = 0  # sync calls served via the fast path
        self._busy_s = 0.0
        self._shed = 0
        # The last 32 (method, repr) pairs, and how many failed in all.
        self._async_failures: list[tuple[str, str]] = []
        self._async_failure_count = 0
        self._mailbox = _IOMailbox(
            self._execute_entry,
            depth=mailbox_depth,
            pool=getattr(node, "executor", None),
        )

    # -- remote surface ----------------------------------------------------

    def enqueue_batch(self, entries: list) -> None:
        """Post asynchronous work: every entry one aggregate message.

        Each entry is ``(method, count, columns | None, rows | None)``,
        Fig. 7's ``processN`` over its parameter array: *count* calls of
        *method* as positional argument *columns* when the sender could
        pack them, else as ``[(args, kwargs), ...]`` *rows*.  A single
        call is an entry of one.  Every entry is its own mailbox entry
        (its calls execute back-to-back), checked and admitted in order,
        so the depth bound, migration forwarding and FIFO order behave
        as if the entries had arrived in separate requests.

        Admission is partial on failure: the entries before the first
        one that raises (a malformed shape, ``OverloadError`` from a full
        mailbox, a disposed mailbox) are enqueued exactly once, that
        entry and all later ones are not, and the error travels back to
        the sender — which therefore must never re-send a refused
        request.
        """
        trace = current_context.get()
        for method, count, columns, rows in entries:
            entry = _checked_entry(method, count, columns, rows, trace)
            if count > 0:
                self._post(method, entry)

    def invoke(self, method: str, args: tuple = (), kwargs: dict | None = None) -> Any:
        task = _Task(
            method=method,
            args=tuple(args),
            kwargs=dict(kwargs or {}),
            trace=current_context.get(),
        )
        if not self._run_inline([task]):
            task.done = threading.Event()
            self._post(method, [task])
            with blocking():
                task.done.wait()
        if task.error is not None:
            raise task.error
        return task.result

    def invoke_batch(
        self, method: str, count: int, columns: list | None = None,
        rows: list | None = None,
    ) -> Any:
        """Synchronous aggregate: N calls in, one ``returnN`` reply out.

        The reply-side twin of :meth:`enqueue_batch`, for one entry of
        the same shape, posted as ONE mailbox entry (back-to-back
        execution, FIFO with surrounding work) — but every call is
        synchronous and the results travel back as a single
        :class:`~repro.remoting.messages.ReturnBatch` instead of N
        response frames.  Per-call failures land in the batch's error
        slots; they never abort the remaining calls.
        """
        trace = current_context.get()
        entry = _checked_entry(method, count, columns, rows, trace)
        tasks = [
            _Task(
                method=method, args=tuple(args), kwargs=dict(kwargs),
                trace=trace,
            )
            for args, kwargs in entry.calls()
        ]
        if not tasks:
            return ReturnBatch(count=0, results=[], errors=())
        if not self._run_inline(tasks):
            for task in tasks:
                task.done = threading.Event()
            self._post(method, tasks)
            # One wait suffices: the batch is a single mailbox entry and
            # executes serially, so the last task finishes last — and
            # every completion path (_execute, forwarding) sets each
            # task's event in order.
            with blocking():
                tasks[-1].done.wait()
        results: list = []
        errors: list[tuple] = []
        for index, task in enumerate(tasks):
            if task.error is not None:
                results.append(None)
                errors.append(
                    (
                        index,
                        type(task.error).__qualname__,
                        str(task.error),
                        "".join(
                            traceback.format_exception(
                                type(task.error),
                                task.error,
                                task.error.__traceback__,
                            )
                        ),
                    )
                )
            else:
                results.append(task.result)
        return ReturnBatch(
            count=len(tasks),
            results=pack_result_column(results),
            errors=tuple(errors),
        )

    def _run_inline(self, tasks: list[_Task]) -> bool:
        """Sync fast path: execute *tasks* on the caller's thread.

        Succeeds only when the mailbox is provably idle (nothing queued,
        nothing executing, no run scheduled), which makes inline
        execution indistinguishable from the post→run→wait round-trip
        except for the latency: FIFO order holds trivially, and the
        claimed inline slot holds back new runs plus any
        drain/migration until the inline call finishes.  No caller
        waits, so the tasks carry no completion event.
        """
        if not self._mailbox.try_claim_idle():
            return False
        try:
            telemetry, tracer = self._tracing()
            for task in tasks:
                self._execute(task, telemetry, tracer, sync=True, inline=True)
        finally:
            self._mailbox.release_claim()
        return True

    def drain(self) -> None:
        self._mailbox.drain()
        forward = self._forward
        if forward is not None:
            forward.drain()

    def dispose(self) -> None:
        # From inside one of its own methods the queued work cannot be
        # waited for: the run executing it is this very call.
        self._mailbox.dispose(wait=executing_impl.get() is not self)
        # A released IO leaves its node: unlisted (no placement load, no
        # stats/pressure walk) and unpublished.  Idempotent.
        release = getattr(self.node, "release_impl", None)
        if release is not None:
            release(self)

    def stats(self) -> dict:
        with self._stats_lock:
            shed = self._shed
            processed = self._processed
            inline = self._inline
            busy_s = self._busy_s
            failures = self._async_failure_count
        return {
            "class_name": self.class_name,
            "queued": self._mailbox.queued_count(),
            "processed": processed,
            "sync_inline": inline,
            "busy_s": busy_s,
            "shed": shed,
            "async_failures": failures,
            "migrated": self._mailbox.migrated,
        }

    def async_failures(self) -> list:
        """(method, error text) pairs from failed asynchronous calls."""
        with self._stats_lock:
            return list(self._async_failures)

    # -- live migration ----------------------------------------------------

    def begin_migration(self) -> list[_Entry]:
        """Pause the mailbox; see :meth:`_IOMailbox.begin_migration`."""
        return self._mailbox.begin_migration()

    def abort_migration(self, entries: list[_Entry]) -> None:
        self._mailbox.abort_migration(entries)

    def complete_migration(self, forward: Any) -> None:
        """Turn this object into a forwarding shell for *forward*.

        *forward* is a proxy (or local reference) to the adopted
        implementation object on the grain's new node.  It must be in
        place before the mailbox flips, so admitters released by
        ``complete_migration`` always find somewhere to forward to.
        """
        self._forward = forward
        self._mailbox.complete_migration()

    @property
    def migrated(self) -> bool:
        return self._mailbox.migrated

    # -- execution -----------------------------------------------------------

    def _post(self, method: str, entry: _Entry) -> None:
        try:
            self._mailbox.put(method, entry)
        except OverloadError:
            self._note_shed(len(entry), method)
            raise
        except MailboxMigratedError:
            self._forward_entry(method, entry)
        except ScooppError:
            raise ScooppError(
                f"implementation object for {self.class_name} is disposed"
            ) from None

    def _forward_entry(self, method: str, entry: _Entry) -> None:
        """Relay work that raced a completed migration to the new home."""
        forward = self._forward
        if forward is None:
            raise ScooppError(
                f"implementation object for {self.class_name} migrated "
                "away with no forwarding address"
            )
        if type(entry) is _Aggregate:
            forward.enqueue_batch([entry.wire()])
            return
        for task in entry:
            # Synchronous stragglers complete inline: the caller's wait
            # event is local, so the result is relayed rather than the
            # task object itself.
            try:
                task.result = forward.invoke(method, task.args, task.kwargs)
            except BaseException as exc:  # noqa: BLE001 - relay verbatim
                task.error = exc
            task.done.set()

    def _note_shed(self, count: int, method: str) -> None:
        with self._stats_lock:
            self._shed += count
        telemetry = getattr(self.node, "telemetry", None)
        if telemetry is not None and telemetry.enabled:
            telemetry.metrics.counter(
                "flow.shed", "calls shed by mailbox admission control"
            ).inc(count)
            telemetry.tracer.instant(
                "flow",
                "flow.shed",
                class_name=self.class_name,
                method=method,
                count=count,
            )

    def _execute_entry(self, entry: _Entry) -> None:
        """Execute one mailbox entry (called by the mailbox's run)."""
        telemetry, tracer = self._tracing()
        if type(entry) is _Aggregate and tracer is None:
            self._execute_aggregate(entry)
        else:
            # Per call: synchronous tasks (a caller waits on each event)
            # and traced aggregates (each call gets its own io span and
            # histogram sample).
            for task in entry:
                self._execute(
                    task, telemetry, tracer, sync=task.done is not None
                )

    def _tracing(self) -> tuple[Any, Any]:
        """(node telemetry or None, tracer or None) for executing work.

        Node-bound tracer when the cluster enabled telemetry (spans land
        in this node's lane of the merged trace); the process-global
        tracer otherwise (the original set_global_tracer contract).
        """
        telemetry = getattr(self.node, "telemetry", None)
        if telemetry is not None and telemetry.enabled:
            return telemetry, telemetry.tracer
        return None, get_global_tracer()

    def _execute_aggregate(self, aggregate: _Aggregate) -> None:
        """The untraced ``processN`` loop: one context set-up per batch.

        Node, executing-impl and trace context are set once, the bound
        method is resolved once, and the batch pays one clock pair and
        one ``_stats_lock`` round.  Each call keeps its own ``try``: a
        failure is recorded and the rest of the batch still runs.
        """
        method = aggregate.method
        count = aggregate.count
        failures: list[tuple[str, str]] = []
        func = None
        node_token = current_node.set(self.node)
        impl_token = executing_impl.set(self)
        trace_token = (
            current_context.set(aggregate.trace)
            if aggregate.trace is not None
            else None
        )
        started = time.perf_counter()
        try:
            for args, kwargs in aggregate.calls():
                try:
                    if func is None:
                        func = getattr(self.instance, method)
                    func(*args, **kwargs)
                except BaseException as exc:  # noqa: BLE001 - active-object boundary
                    failures.append((method, repr(exc)))
        finally:
            elapsed = time.perf_counter() - started
            if trace_token is not None:
                current_context.reset(trace_token)
            executing_impl.reset(impl_token)
            current_node.reset(node_token)
            with self._stats_lock:
                self._processed += count
                self._busy_s += elapsed
                if failures:
                    self._async_failures.extend(failures)
                    del self._async_failures[:-32]
                    self._async_failure_count += len(failures)
            # One sample per batch, carrying the batch mean.
            self._report_execution(elapsed / count, method)

    def _execute(
        self, task: _Task, telemetry: Any, tracer: Any, sync: bool,
        inline: bool = False,
    ) -> None:
        started = time.perf_counter()
        token = current_node.set(self.node)
        impl_token = executing_impl.set(self)
        # Re-activate the posting site's trace context (crossed the wire
        # in the parc-trace header for remote posts) and bind the tracer
        # so nested remote calls made by the user method chain onward.
        trace_token = (
            current_context.set(task.trace)
            if task.trace is not None
            else None
        )
        tracer_token = (
            current_tracer_var.set(tracer) if tracer is not None else None
        )
        try:
            if tracer is None:
                self._call(task)
            else:
                span_name = f"{self.class_name.rsplit('.', 1)[-1]}.{task.method}"
                with tracer.span("io", span_name, sync=sync):
                    self._call(task)
                if telemetry is not None:
                    telemetry.metrics.histogram(
                        f"parc.method.seconds.{span_name}",
                        help_text="method execution latency",
                    ).observe(time.perf_counter() - started)
        finally:
            if tracer_token is not None:
                current_tracer_var.reset(tracer_token)
            if trace_token is not None:
                current_context.reset(trace_token)
            executing_impl.reset(impl_token)
            current_node.reset(token)
            elapsed = time.perf_counter() - started
            with self._stats_lock:
                self._busy_s += elapsed
                self._processed += 1
                self._inline += inline
                if not sync and task.error is not None:
                    self._async_failures.append(
                        (task.method, repr(task.error))
                    )
                    del self._async_failures[:-32]
                    self._async_failure_count += 1
            self._report_execution(elapsed, task.method)
            if task.done is not None:
                task.done.set()

    def _call(self, task: _Task) -> None:
        try:
            task.result = getattr(self.instance, task.method)(
                *task.args, **task.kwargs
            )
        except BaseException as exc:  # noqa: BLE001 - active-object boundary
            task.error = exc

    def _report_execution(self, elapsed: float, method: str) -> None:
        """Feed the ``on_execution`` observer (the grain controller)."""
        if self._on_execution is None:
            return
        try:
            self._on_execution(self.class_name, elapsed, method)
        except Exception:  # noqa: BLE001 - stats must never kill work
            telemetry = getattr(self.node, "telemetry", None)
            if telemetry is not None:
                telemetry.metrics.counter(
                    "parc.errors.on_execution",
                    "on_execution observer calls that raised",
                ).inc()
            if not self._on_execution_failed:
                self._on_execution_failed = True
                logger.exception(
                    "on_execution observer of %s failed", self.class_name
                )

    @property
    def queue_length(self) -> int:
        return self._mailbox.queue_length()
