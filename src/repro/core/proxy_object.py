"""Proxy objects (PO): the client half of a parallel object.

§3.2: "A PO represents a local or a remote parallel object and has the
same interface as the object it represents.  It transparently replaces
remote parallel objects and forwards all method invocations to the remote
parallel object implementation."

A PO owns one *grain*:

* :class:`RemoteGrain` — the parallel case: a transparent proxy to the
  remote :class:`~repro.core.impl.ImplementationObject`, plus the PO-side
  grain-size machinery — aggregation buffers (Fig. 7) and an outbox
  whose sends run on the process executor
  (:func:`repro.executor.executor`), so asynchronous calls return
  immediately to the caller while staying in program order on the wire;
* :class:`LocalGrain` — the agglomerated case (Fig. 5's ``if
  aglomerateObj``): the IO lives in-place and "its subsequent
  (asynchronous parallel) method invocations are actually executed
  synchronously and serially".

Generated PO classes (from :func:`make_parallel_class` or the source
preprocessor) subclass :class:`ProxyObject` and add one forwarding method
per user method — async methods post, sync methods flush-then-call.
"""

from __future__ import annotations

import functools
import itertools
import logging
import threading
import time as _time
from collections import deque
from typing import Any

from repro.core.model import MethodKind, ParallelClassInfo, parallel_class_table
from repro.errors import (
    AddressError,
    BatchCallError,
    ChannelError,
    GrainError,
    NodeLostError,
    OverloadError,
    RemoteInvocationError,
    RemotingError,
    ScooppError,
)
from repro.executor import blocking, executor, timer
from repro.remoting.objref import ObjRef
from repro.remoting.proxy import RemoteProxy
from repro.serialization.codec import (
    method_column_plan,
    pack_columns,
    unpack_result_column,
)
from repro.serialization.registry import Surrogate, default_registry
from repro.telemetry.context import activate, current_context
from repro.telemetry.tracer import active_tracer

logger = logging.getLogger("repro.core")

_grain_ids = itertools.count(1)

#: Errors that *may* mean "the hosting node is gone" and are worth a
#: recovery attempt.  RemoteInvocationError is in the RemotingError tree
#: but is filtered out by :func:`is_transport_error`: the method ran, the
#: node is alive.
_TRANSPORT_ERRORS = (ChannelError, RemotingError, ConnectionError)


def is_transport_error(error: BaseException) -> bool:
    """True for failures meaning "the peer may be gone", not "it said no".

    Classification is strictly by exception type — no message sniffing:

    * :class:`~repro.errors.RemoteInvocationError` is never a transport
      error: the remote method ran and raised, so the peer is alive;
    * :class:`~repro.errors.AddressError` is a malformed/unresolvable
      address — no recovery can fix it;
    * every other :class:`~repro.errors.ChannelError` (including
      chaos-injected faults), plus OS-level :class:`ConnectionError` and
      :class:`TimeoutError` (``socket.timeout`` is its alias), means the
      wire or the peer failed mid-flight.
    """
    if isinstance(error, (RemoteInvocationError, AddressError)):
        return False
    return isinstance(error, (ChannelError, ConnectionError, TimeoutError))


@functools.cache
def _column_plan(impl_class: type | None, method: str) -> Any:
    """The column plan of *method*, compiled once per (class, method)."""
    func = getattr(impl_class, method, None)
    return method_column_plan(func) if callable(func) else None


class LocalGrain:
    """Agglomerated grain: direct, serial, in-place execution."""

    is_local = True

    def __init__(self, instance: Any, class_name: str) -> None:
        self.instance = instance
        self.class_name = class_name
        self.grain_id = next(_grain_ids)
        self.direct_calls = 0
        #: Called once by :meth:`dispose` (set by the creating runtime).
        self.on_release = None

    def post(self, method: str, args: tuple, kwargs: dict) -> None:
        # Asynchronous in the model, synchronous in the agglomerated
        # implementation — exactly the parallelism removal of §3.1.
        self.direct_calls += 1
        getattr(self.instance, method)(*args, **kwargs)

    def call(self, method: str, args: tuple, kwargs: dict) -> Any:
        self.direct_calls += 1
        return getattr(self.instance, method)(*args, **kwargs)

    def call_many(self, method: str, batch: list) -> list:
        """Synchronous aggregate on an agglomerated grain: run serially.

        Same contract as :meth:`RemoteGrain.call_many`: one result per
        ``(args, kwargs)`` pair; per-call failures collect into a
        :class:`~repro.errors.BatchCallError` instead of aborting the
        rest of the batch.
        """
        func = getattr(self.instance, method)
        results: list = []
        failures: dict[int, BaseException] = {}
        for index, (args, kwargs) in enumerate(batch):
            self.direct_calls += 1
            try:
                results.append(func(*args, **kwargs))
            except Exception as exc:  # noqa: BLE001 - per-call error slot
                results.append(None)
                failures[index] = exc
        if failures:
            raise BatchCallError(
                f"{len(failures)}/{len(results)} calls of {method!r} "
                f"failed in a call_many batch",
                results,
                failures,
            )
        return results

    def flush(self) -> None:
        return None

    def drain(self) -> None:
        return None

    def dispose(self) -> None:
        on_release, self.on_release = self.on_release, None
        if on_release is not None:
            on_release()


class RemoteGrain:
    """Parallel grain: aggregation buffers + ordered outbox + remote IO.

    The grain owns no thread.  Flushed calls queue in its outbox, and at
    most one *send run* at a time ships them from an executor thread, in
    order.  Aggregation is "(delay and) combine" (§3.1): a partial batch
    is never held indefinitely — the process timer auto-flushes
    any buffer that has waited *flush_after_s* behind a free wire, so
    asynchronous calls always make progress even when the program stops
    short of ``max_calls``.
    """

    is_local = False

    #: Default maximum age of a partial aggregation batch (seconds).
    FLUSH_AFTER_S = 0.005

    #: Minimum interval between autotuner consultations (seconds) — the
    #: controller's EWMAs move slowly, so re-deciding on every post would
    #: only add lock traffic.
    RETUNE_PERIOD_S = 0.02

    #: Caps on one coalesced request (:meth:`_take_run_locked`): calls
    #: carried, and serialized size as estimated from the bytes per call
    #: observed on this grain's earlier sends of the same method.
    RUN_MAX_CALLS = 4096
    RUN_MAX_BYTES = 1 << 20

    #: How far a caller may get ahead of the sender, in flushed calls no
    #: send run has taken yet: the post that reaches it waits — at most
    #: YIELD_TIMEOUT_S, once — for the send run to take them
    #: (:meth:`post`).  Without the wait a caller that never blocks
    #: keeps the interpreter until CPython's 5 ms switch interval expires,
    #: so when requests left and how many aggregates each carried was
    #: decided by where that interval happened to fall.
    YIELD_AT_CALLS = 128
    YIELD_TIMEOUT_S = 0.005

    def __init__(
        self,
        impl_proxy: RemoteProxy,
        max_calls: int,
        flush_after_s: float | None = None,
    ) -> None:
        if max_calls < 1:
            raise GrainError(f"max_calls must be >= 1, got {max_calls}")
        self.impl = impl_proxy
        self.max_calls = max_calls
        self.flush_after_s = (
            flush_after_s if flush_after_s is not None else self.FLUSH_AFTER_S
        )
        self.grain_id = next(_grain_ids)
        # Outbox items queued, split by kind (what metrics_snapshot
        # exposes as po.batches / po.singles).
        self.batches = 0
        self.singles = 0
        # Calls refused with OverloadError (shed by a full mailbox) —
        # never retried, never treated as a crash.
        self.sheds = 0
        # Columnar aggregates: enabled by the runtime once it knows the
        # grain's class.  *impl_class* (the user class, set by the
        # runtime) supplies method signatures for column planning.
        self.columnar = False
        self.impl_class: type | None = None
        # Telemetry-fed autotuning: set by the runtime under an adaptive
        # grain controller.  ``decide_method`` is consulted (rate-limited
        # by RETUNE_PERIOD_S) when a new aggregation buffer opens, so
        # max_calls/flush_after_s track the method actually being posted.
        self.tuner = None
        self.tuner_class: str | None = None
        self._tuning_stamp = 0.0
        # Observer fed (serialized request bytes, calls carried) after
        # each successful send — the adaptive grain controller's
        # bytes-per-call input.
        self.wire_observer = None
        self.observer_errors = 0  # parc.errors.wire_observer
        self.retune_errors = 0  # parc.errors.retune
        # Serialized bytes per call of each method's last unmixed send:
        # the size estimate behind the run byte cap.  A method not seen
        # yet travels alone, so every estimate starts from a real frame.
        self._wire_bytes_per_call: dict[str, float] = {}
        # Crash-recovery hooks, set by the runtime after construction:
        # *spec* is the (info, args, kwargs) needed to re-create the IO,
        # *recoverer* is ``runtime.recover_grain`` (returns True once the
        # grain has been rebound to a respawned IO).
        self.spec: tuple | None = None
        self.restartable = False
        self.recoverer = None
        #: Called once by :meth:`dispose` (set by the creating runtime).
        self.on_release = None
        self._lock = threading.Lock()
        self._buffer_method: str | None = None
        # The method a post may append to the open buffer unchecked: None
        # while it is empty and while the grain is lost, released or failed.
        self._open_method: str | None = None
        self._buffer: list[tuple[tuple, dict]] = []
        self._buffer_since = 0.0
        self._buffer_ctx = None  # trace context of the first buffered call
        self._outbox: deque = deque()
        self._outbox_cv = threading.Condition(self._lock)
        # Calls in outbox items no send run has taken yet.
        self._unsent_calls = 0
        # A send run is queued on, or running in, the executor.
        self._sending = False
        # When the last send run ended: the flush deadline runs from here.
        self._idle_since = 0.0
        # This grain has a deadline on the process timer.
        self._flush_armed = False
        self._sender_error: BaseException | None = None
        self._lost: NodeLostError | None = None
        self._released = False
        executor().attach()

    # -- async path -----------------------------------------------------

    def post(self, method: str, args: tuple, kwargs: dict) -> None:
        """Buffer an asynchronous call; ship a batch at ``max_calls``.

        Buffering is per *consecutive run* of one method: a call to a
        different method flushes the previous run first, so total program
        order is preserved (batches and singles leave in caller order).
        *args* and *kwargs* are buffered as given: every generated PO
        method hands over a fresh tuple and dict.

        Returns at once unless this call leaves the caller
        ``YIELD_AT_CALLS`` ahead of the send run; then it first lets the
        run take what is queued (see ``YIELD_AT_CALLS``).
        """
        for attempt in (1, 2):
            try:
                with self._lock:
                    if (
                        method == self._open_method
                        and len(self._buffer) + 1 < self.max_calls
                    ):
                        # The common case: a call the open buffer takes
                        # without filling up (any fault clears the method).
                        self._buffer.append((args, kwargs))
                    else:
                        self._post_locked(method, args, kwargs)
                return
            except NodeLostError:
                raise
            except OverloadError:
                self.sheds += 1
                raise
            except (ScooppError, *_TRANSPORT_ERRORS) as exc:
                if attempt == 2 or not self._try_recover(exc):
                    raise

    def _post_locked(self, method: str, args: tuple, kwargs: dict) -> None:
        self._ensure_usable()
        unsent = self._unsent_calls
        if not self._buffer:
            self._maybe_retune(method)
        # The PO call site: the caller's trace context is captured here so
        # the send run can re-activate it when the (possibly batched) call
        # actually leaves — the remote io span chains to the span that
        # was active at post time, not to the executor thread.
        if self.max_calls == 1:
            self._enqueue_locked(
                (method, [(args, kwargs)], current_context.get())
            )
        else:
            if self._buffer_method not in (None, method):
                self._flush_locked()
            if not self._buffer:
                self._buffer_since = _time.monotonic()
                self._buffer_ctx = current_context.get()
                if not self._sending:
                    # A send run in flight arms the deadline when it
                    # ends: until then the wire is not free.
                    self._arm_flush_locked(
                        self._buffer_since + self.flush_after_s
                    )
            self._buffer_method = method
            self._buffer.append((args, kwargs))
            if len(self._buffer) >= self.max_calls:
                self._flush_locked()
            else:
                self._open_method = method
        if unsent < self.YIELD_AT_CALLS <= self._unsent_calls:
            # This call put the caller YIELD_AT_CALLS ahead of the
            # wire: let the send run have the interpreter now.  Bounded,
            # and once per crossing, so a slow wire delays the caller
            # by one timeout per run rather than throttling it.
            self._outbox_cv.wait_for(
                self._sender_caught_up, self.YIELD_TIMEOUT_S
            )

    # -- sync path ------------------------------------------------------

    def call(self, method: str, args: tuple, kwargs: dict) -> Any:
        """Synchronous call: flush pending work, then round-trip.

        The IO's FIFO mailbox guarantees the flushed batches execute
        before this call — program order holds across the async/sync
        boundary.

        A transport failure here is the *reactive* detection path: the
        runtime's recoverer confirms the node is dead, respawns a
        restartable grain on a surviving node and the call is retried
        once against the new IO; non-restartable grains surface
        :class:`~repro.errors.NodeLostError`.
        """
        return self._with_recovery(self._call_once, method, args, kwargs)

    def _call_once(self, method: str, args: tuple, kwargs: dict) -> Any:
        with self._lock:
            self._flush_and_wait_locked()
        tracer = active_tracer()
        if tracer is None:
            return self.impl.invoke(method, args, kwargs)
        with tracer.span("po", f"po.{method}", grain=self.grain_id):
            return self.impl.invoke(method, args, kwargs)

    def call_many(self, method: str, batch: list) -> list:
        """N synchronous calls, one wire round-trip (processN + returnN).

        *batch* is ``[(args, kwargs), ...]``; returns one result per
        pair, in order.  The aggregate ships as a single request (the
        columnar form when the batch shape allows) and the IO answers
        with one :class:`~repro.remoting.messages.ReturnBatch` instead
        of N response frames.  Per-call failures come back in the
        batch's error slots and are re-raised here as a
        :class:`~repro.errors.BatchCallError` that still carries every
        successful result.
        """
        normalized = [
            (tuple(args), dict(kwargs)) for args, kwargs in batch
        ]
        if not normalized:
            return []
        return self._with_recovery(self._call_many_once, method, normalized)

    def _call_many_once(self, method: str, batch: list) -> list:
        with self._lock:
            self._flush_and_wait_locked()
        tracer = active_tracer()
        if tracer is None:
            return self._call_many_inner(method, batch)
        with tracer.span(
            "po", f"po.{method}xN", grain=self.grain_id, calls=len(batch)
        ):
            return self._call_many_inner(method, batch)

    def _call_many_inner(self, method: str, batch: list) -> list:
        columns = self._columns_for(method, batch)
        rows = batch if columns is None else None
        reply = self.impl.invoke_batch(method, len(batch), columns, rows)
        return self._unpack_returnn(method, reply, len(batch))

    def _unpack_returnn(self, method: str, reply, count: int) -> list:  # type: ignore[no-untyped-def]
        if reply is None or getattr(reply, "count", None) != count:
            raise ScooppError(
                f"returnN reply for {method!r} carries "
                f"{getattr(reply, 'count', None)} results, expected {count}"
            )
        results = unpack_result_column(reply.count, reply.results)
        if not reply.errors:
            return results
        failures: dict[int, BaseException] = {}
        for slot in reply.errors:
            index, type_name, message = int(slot[0]), slot[1], slot[2]
            trace_text = slot[3] if len(slot) > 3 else ""
            if type_name == "OverloadError":
                failures[index] = OverloadError(message)
            else:
                failures[index] = RemoteInvocationError(
                    f"remote call failed: {type_name}: {message}",
                    remote_traceback=trace_text,
                )
        raise BatchCallError(
            f"{len(failures)}/{count} calls of {method!r} failed in a "
            f"call_many batch",
            results,
            failures,
        )

    # -- grain controls ----------------------------------------------------

    def flush(self) -> None:
        """Ship any buffered calls now (does not wait for execution)."""
        with self._lock:
            self._ensure_usable()
            self._flush_locked()

    def sync_outbox(self) -> None:
        """Flush and wait until every shipped call is in the IO's mailbox.

        This is the happens-before edge used when this grain's PO is
        passed by reference: once the reference arrives, any call the
        receiver makes through it is ordered after the sender's earlier
        asynchronous calls (the IO mailbox is FIFO).
        """
        with self._lock:
            self._flush_and_wait_locked()

    def drain(self) -> None:
        """Flush and block until the IO has executed everything."""
        with self._lock:
            self._flush_and_wait_locked()
        self.impl.drain()

    def dispose(self) -> None:
        try:
            with self._lock:
                if self._released:
                    return
                if self._lost is None:
                    self._flush_locked()
                    self._wait_outbox_empty_locked()
        finally:
            with self._lock:
                already = self._released
                self._released = True
                self._open_method = None
                self._outbox_cv.notify_all()
            if not already:
                executor().detach()
        if not already:
            if self.on_release is not None:
                self.on_release()
            if self._lost is None:
                self.impl.dispose()

    # -- crash recovery ----------------------------------------------------

    def home_authority(self) -> str | None:
        """Authority hosting the IO, or None for an in-process impl."""
        ref = getattr(self.impl, "_parc_objref", None)
        if ref is None or not ref.uris:
            return None
        from repro.channels.services import parse_uri

        return parse_uri(ref.uris[0]).authority

    def rebind(self, new_impl) -> None:  # type: ignore[no-untyped-def]
        """Repoint this grain at a respawned IO (clears failure state).

        Buffered-but-unflushed asynchronous calls are preserved and will
        flush to the new IO; calls already shipped to the dead node are
        gone — respawn re-runs the constructor, so the IO's state
        restarts from scratch regardless.
        """
        with self._outbox_cv:
            self.impl = new_impl
            self._sender_error = None
            self._lost = None
            self._clear_outbox_locked()

    def repoint(self, new_impl) -> None:  # type: ignore[no-untyped-def]
        """Follow a live migration: swap the IO without losing work.

        Unlike :meth:`rebind` (crash respawn — calls shipped to the dead
        node are gone), a migrated IO carries the grain's state and its
        queued backlog, so the buffered outbox is kept and simply
        flushes to the new home.  The victim's forwarding shell keeps
        serving stragglers, which makes repointing an optimization —
        a grain already marked lost stays lost.
        """
        with self._outbox_cv:
            if self._lost is not None:
                return
            self.impl = new_impl

    def mark_lost(self, error: NodeLostError) -> None:
        """Poison the grain: every subsequent use raises *error*.

        Also discards pending work and wakes blocked waiters, so callers
        parked in :meth:`call`/:meth:`drain` fail promptly instead of
        waiting on a node that will never answer.
        """
        with self._outbox_cv:
            self._lost = error
            self._sender_error = None
            self._buffer = []
            self._buffer_method = self._open_method = None
            self._clear_outbox_locked()

    def _with_recovery(self, attempt, *args):  # type: ignore[no-untyped-def]
        try:
            return attempt(*args)
        except NodeLostError:
            raise
        except OverloadError:
            # Shedding means the node is alive but saturated — the exact
            # opposite of a crash.  Probing/respawning here would add
            # load to an overloaded cluster, so surface it untouched.
            self.sheds += 1
            raise
        except (ScooppError, *_TRANSPORT_ERRORS) as exc:
            if not self._try_recover(exc):
                raise
            return attempt(*args)

    def _try_recover(self, exc: BaseException) -> bool:
        """Ask the runtime to confirm node death and respawn; True = retry."""
        recoverer = self.recoverer
        if recoverer is None:
            return False
        # Sender failures surface wrapped in ScooppError; recover on the
        # root transport cause, not the wrapper.
        cause: BaseException = exc
        while (
            isinstance(cause, ScooppError)
            and not isinstance(cause, NodeLostError)
            and cause.__cause__ is not None
        ):
            cause = cause.__cause__
        if not is_transport_error(cause):
            return False
        return bool(recoverer(self, cause))

    # -- internals ---------------------------------------------------------

    def _ensure_usable(self) -> None:
        if self._lost is not None:
            raise self._lost
        if self._released:
            raise GrainError("proxy object has been released")
        if self._sender_error is not None:
            error, self._sender_error = self._sender_error, None
            if isinstance(error, OverloadError):
                # Keep the typed fail-fast signal: callers must see
                # shedding as shedding, not as a generic wrapped send
                # failure.
                raise error
            raise ScooppError(
                f"asynchronous send failed: {error}"
            ) from error

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        method, self._buffer_method = self._buffer_method, None
        self._open_method = None
        ctx, self._buffer_ctx = self._buffer_ctx, None
        tracer = active_tracer()
        if tracer is not None:
            tracer.instant(
                "po", "po.flush", method=method, calls=len(batch),
                grain=self.grain_id,
            )
        self._enqueue_locked((method, batch, ctx))

    def _enqueue_locked(self, item: tuple) -> None:
        """Queue one ``(method, calls, trace context)`` item to be sent.

        An item of one call is a *single*, anything longer an aggregate;
        each travels as one ``enqueue_batch`` entry.  Submits a send run
        unless one is already queued or running: it will reach the item.
        """
        self._outbox.append(item)
        calls = len(item[1])
        if calls > 1:
            self.batches += 1
        else:
            self.singles += 1
        self._unsent_calls += calls
        if not self._sending:
            self._sending = True
            executor().submit(self._send_some)

    def _sender_caught_up(self) -> bool:
        return self._unsent_calls < self.YIELD_AT_CALLS

    def _clear_outbox_locked(self) -> None:
        self._outbox.clear()
        self._unsent_calls = 0
        self._outbox_cv.notify_all()

    def _flush_and_wait_locked(self) -> None:
        """Ship the buffer and wait until the outbox is empty, in the one
        hold of the grain lock the caller already has (``_outbox_cv``
        shares it): what a sync call, ``sync_outbox`` and ``drain`` do
        before their next step."""
        self._ensure_usable()
        self._flush_locked()
        self._wait_outbox_empty_locked()

    def _wait_outbox_empty_locked(self) -> None:
        while (
            self._outbox
            and self._sender_error is None
            and self._lost is None
        ):
            # Managed blocking, as is the IO's reply wait behind every
            # sync call, drain and dispose of this grain.
            with blocking():
                self._outbox_cv.wait()
        self._ensure_usable()

    def _send_some(self) -> None:
        """One executor run: ship the outbox, run by run, until it is empty.

        The run ends with ``_sending`` cleared under the same lock as its
        last emptiness check, so queued work is never left without a run
        and a grain never has two.
        """
        sent: list = []
        while True:
            with self._outbox_cv:
                # Pop exactly the items sent; a rebind or mark_lost in
                # the meantime has already emptied the outbox.
                for item in sent:
                    if self._outbox and self._outbox[0] is item:
                        self._outbox.popleft()
                if not self._outbox:
                    self._sending = False
                    # The flush deadline runs while the wire is free.  Time
                    # spent shipping, or waiting for a thread, is not held
                    # against the buffer: those calls could not have left
                    # any sooner, and a caller merely starved of the
                    # interpreter would otherwise have its aggregates cut
                    # short at every busy spell.
                    self._idle_since = _time.monotonic()
                    if self._buffer and not self._released:
                        self._arm_flush_locked(
                            self._idle_since + self.flush_after_s
                        )
                    self._outbox_cv.notify_all()
                    return
                run = self._take_run_locked()
                for item in run:
                    self._unsent_calls -= len(item[1])
                self._outbox_cv.notify_all()
            try:
                # Re-activate the post-time trace context so the
                # enqueue_batch rpc (and the remote io span behind it)
                # chains to the caller's span, not to the executor thread.
                ctx = run[0][2]
                if ctx is None and current_context.get() is None:
                    calls = self._send_run(run)
                else:
                    with activate(ctx):
                        calls = self._send_run(run)
            except BaseException as exc:  # noqa: BLE001 - surfaced on next use
                with self._outbox_cv:
                    if isinstance(exc, OverloadError):
                        self.sheds += 1
                    self._sender_error = exc
                    self._open_method = None
                    self._clear_outbox_locked()
                sent = []
                continue
            nbytes = getattr(self.impl, "_parc_last_wire_bytes", 0)
            method = run[0][0]
            if all(item[0] == method for item in run):
                self._wire_bytes_per_call[method] = nbytes / calls
            if self.wire_observer is not None:
                try:
                    self.wire_observer(nbytes, calls)
                except Exception:  # noqa: BLE001 - stats must never kill work
                    self.observer_errors += 1
                    if self.observer_errors == 1:
                        logger.exception(
                            "wire observer of grain %d failed", self.grain_id
                        )
            sent = run

    def _arm_flush_locked(self, deadline: float) -> None:
        if not self._flush_armed:
            self._flush_armed = True
            timer().call_at(deadline, self._flush_due)

    def _flush_due(self) -> None:
        """The process timer's call at this grain's deadline.

        Auto-flush: a partial batch may only be *delayed*, never parked
        indefinitely.  The buffer ships once it has waited
        ``flush_after_s`` behind a free wire; a send run in flight arms
        the next deadline itself when it ends.
        """
        with self._lock:
            self._flush_armed = False
            if self._released or self._sending or not self._buffer:
                return
            due = max(self._buffer_since, self._idle_since) + self.flush_after_s
            if _time.monotonic() >= due:
                self._flush_locked()
            else:
                self._arm_flush_locked(due)

    def _take_run_locked(self) -> list:
        """The outbox prefix the next request carries (left in place).

        Group commit: everything that was flushed while the previous
        round trip was in flight leaves together, so the per-request
        cost is paid once per run instead of once per aggregate; a slow
        caller never has more than one item queued and sees no change.
        Only items posted under the same trace context merge (the run is
        sent under that context), only for a grain whose class is known
        (``columnar``), and only up to the RUN_MAX_* caps.
        """
        outbox = self._outbox
        method, calls, ctx = outbox[0]
        run = [outbox[0]]
        per_call = self._wire_bytes_per_call.get(method)
        if len(outbox) == 1 or not self.columnar or per_call is None:
            return run
        total = len(calls)
        nbytes = total * per_call
        for item in itertools.islice(outbox, 1, None):
            per_call = self._wire_bytes_per_call.get(item[0])
            if per_call is None or item[2] is not ctx:
                break
            total += len(item[1])
            nbytes += len(item[1]) * per_call
            if total > self.RUN_MAX_CALLS or nbytes > self.RUN_MAX_BYTES:
                break
            run.append(item)
        return run

    def _send_run(self, run: list) -> int:
        """Ship *run* in one ``enqueue_batch``; returns the calls sent.

        Every item — a single, a lone aggregate or one of a coalesced
        run — is one entry: argument columns (Fig. 7's parameter array,
        transposed) when its shape allows, else rows (kwargs, mixed
        arity).  Nothing is re-sent: the IO admits entry by entry, so a
        failure may have left a prefix enqueued.

        A remote IO is reached through the proxy's ``_parc_invoke``, not
        through a :class:`~repro.remoting.proxy.RemoteMethod`: the
        admission round trip waits only for the peer's mailbox put, which
        needs no run of this process, so it stays outside the executor's
        managed blocking and the send runs stay within its cap.
        """
        entries = []
        total = 0
        for method, calls, _ctx in run:
            columns = self._columns_for(method, calls)
            rows = calls if columns is None else None
            entries.append((method, len(calls), columns, rows))
            total += len(calls)
        invoke = getattr(self.impl, "_parc_invoke", None)
        if invoke is None:
            self.impl.enqueue_batch(entries)
        else:
            invoke("enqueue_batch", (entries,), {})
        return total

    def _columns_for(self, method: str, calls: list) -> list | None:
        """*calls* as argument columns, or None when they travel as rows."""
        if not self.columnar:
            return None
        columns = pack_columns(calls, _column_plan(self.impl_class, method))
        return list(columns) if columns is not None else None

    def _maybe_retune(self, method: str) -> None:
        """Refresh max_calls/flush_after_s from the autotuner (locked).

        Consulted when a new aggregation buffer opens so the applied
        tuning matches the method about to be buffered; rate-limited so
        a hot posting loop costs one controller lookup per
        RETUNE_PERIOD_S, not per call.
        """
        tuner = self.tuner
        if tuner is None:
            return
        now = _time.monotonic()
        if now - self._tuning_stamp < self.RETUNE_PERIOD_S:
            return
        self._tuning_stamp = now
        try:
            tuning = tuner.decide_method(self.tuner_class or "", method)
        except Exception:  # noqa: BLE001 - tuning must never break posts
            self.retune_errors += 1
            if self.retune_errors == 1:
                logger.exception(
                    "autotuner of grain %d failed", self.grain_id
                )
            return
        if tuning is None:
            return
        max_calls, flush_after_s = tuning
        if max_calls and int(max_calls) >= 1:
            self.max_calls = int(max_calls)
        if flush_after_s and flush_after_s > 0:
            self.flush_after_s = float(flush_after_s)


class ProxyObject:
    """Base class of generated PO classes.

    Construction consults the runtime's object manager (grain decision +
    placement, Fig. 5) and builds the grain; generated methods forward to
    it.  Runtime controls are ``parc_``-prefixed to stay clear of user
    method names:

    * ``parc_flush()`` — ship buffered asynchronous calls;
    * ``parc_wait()`` — block until all posted work has executed;
    * ``parc_release()`` — dispose the grain (flushes and drains first);
    * ``parc_is_local`` — True when the object was agglomerated.
    """

    #: Set on subclasses by make_parallel_class / the preprocessor.
    _parc_info: ParallelClassInfo | None = None

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        info = type(self)._parc_info
        if info is None:
            raise ScooppError(
                "ProxyObject subclass was not generated; use "
                "make_parallel_class or the preprocessor"
            )
        from repro.core.runtime import current_runtime

        runtime = current_runtime()
        self._parc_grain = runtime.create_grain(info, args, kwargs)

    def parc_delegate(self, method_name: str):  # type: ignore[no-untyped-def]
        """A :class:`~repro.remoting.delegates.Delegate` for one method.

        The PO equivalent of Fig. 4's ``RemoteAsyncDelegate``: lets a
        *synchronous* method run in background and deliver its value
        later::

            delegate = po.parc_delegate("summary")
            handle = delegate.begin_invoke()
            ...                               # overlap other work
            result = delegate.end_invoke(handle)
        """
        info = type(self)._parc_info
        if info is None or method_name not in info.method_kinds:
            raise ScooppError(
                f"{type(self).__name__} has no parallel method "
                f"{method_name!r}"
            )
        from repro.remoting.delegates import Delegate

        grain = self._parc_grain

        def call(*args: Any, **kwargs: Any) -> Any:
            return grain.call(method_name, args, kwargs)

        call.__name__ = method_name
        return Delegate(call)

    def parc_call_many(self, method_name: str, arg_tuples) -> list:  # type: ignore[no-untyped-def]
        """Invoke a synchronous method once per argument tuple, batched.

        ``po.parc_call_many("price", [(s, k) for s, k in work])`` ships
        the whole batch as one aggregate request and receives one
        aggregated ``returnN`` reply — N results for two wire frames
        instead of 2N.  Returns the results in order; if any individual
        call failed, raises :class:`~repro.errors.BatchCallError`
        carrying the successes and a per-index failure map.
        """
        info = type(self)._parc_info
        if info is None or method_name not in info.method_kinds:
            raise ScooppError(
                f"{type(self).__name__} has no parallel method "
                f"{method_name!r}"
            )
        batch = [(tuple(args), {}) for args in arg_tuples]
        return self._parc_grain.call_many(method_name, batch)

    def parc_flush(self) -> None:
        self._parc_grain.flush()

    def parc_wait(self) -> None:
        self._parc_grain.drain()

    def parc_release(self) -> None:
        self._parc_grain.dispose()

    @property
    def parc_is_local(self) -> bool:
        return self._parc_grain.is_local

    def __repr__(self) -> str:
        info = type(self)._parc_info
        name = info.wire_name if info is not None else "?"
        kind = "local" if self._parc_grain.is_local else "remote"
        return f"<PO {name} ({kind} grain {self._parc_grain.grain_id})>"


def _make_async_method(name: str) -> Any:
    def method(self: ProxyObject, *args: Any, **kwargs: Any) -> None:
        self._parc_grain.post(name, args, kwargs)

    method.__name__ = name
    method.__qualname__ = name
    method.__doc__ = f"Asynchronous parallel call of {name} (no result)."
    return method


def _make_sync_method(name: str) -> Any:
    def method(self: ProxyObject, *args: Any, **kwargs: Any) -> Any:
        return self._parc_grain.call(name, args, kwargs)

    method.__name__ = name
    method.__qualname__ = name
    method.__doc__ = f"Synchronous parallel call of {name} (returns a value)."
    return method


_po_class_cache: dict[type, type] = {}
_po_class_lock = threading.Lock()


def make_parallel_class(cls: type) -> type:
    """Runtime equivalent of the preprocessor: generate *cls*'s PO class.

    ``make_parallel_class(PrimeServer)`` returns a class with
    ``PrimeServer``'s public interface whose instances are POs (Fig. 4's
    generated ``PrimeServer`` with the original renamed away).  Cached per
    class; tests assert it is behaviourally identical to the
    source-generated PO.
    """
    with _po_class_lock:
        cached = _po_class_cache.get(cls)
        if cached is not None:
            return cached
    info = parallel_class_table.by_class(cls)
    namespace: dict[str, Any] = {
        "_parc_info": info,
        "__doc__": f"Generated proxy-object class for {cls.__qualname__}.",
        "_parc_impl_class": cls,
    }
    for name, kind in info.method_kinds.items():
        if kind is MethodKind.ASYNC:
            namespace[name] = _make_async_method(name)
        else:
            namespace[name] = _make_sync_method(name)
    po_class = type(f"{cls.__name__}PO", (ProxyObject,), namespace)
    with _po_class_lock:
        _po_class_cache[cls] = po_class
    return po_class


class ProxyObjectSurrogate(Surrogate):
    """Lets PO references travel as method arguments (§3.1).

    "References to parallel objects may be copied or sent as a method
    argument" — a PO on the wire becomes (class wire name, IO ObjRef);
    the receiver rebuilds a PO of the same generated class whose grain
    points at the *same* implementation object.  Local (agglomerated)
    grains are first promoted to published implementation objects by the
    current runtime.
    """

    wire_name = "parc.scoopp.PORef"
    claims = (ProxyObject,)

    def encode(self, obj: ProxyObject) -> dict[str, Any]:
        info = type(obj)._parc_info
        grain = obj._parc_grain
        if grain.is_local:
            from repro.core.runtime import current_runtime

            grain = current_runtime().promote_grain(obj)
        # Happens-before: ship pending asynchronous calls before the
        # reference leaves, so the receiver observes them (FIFO mailbox).
        grain.sync_outbox()
        if isinstance(grain.impl, RemoteProxy):
            ref = grain.impl._parc_objref
        else:
            # Reference-shortcut grain: the impl is a live local
            # ImplementationObject; publish it through the runtime.
            from repro.core.runtime import current_runtime

            ref = current_runtime().objref_for_impl(grain.impl)
        return {
            "class_name": info.wire_name,
            "uris": list(ref.uris),
            "host_id": ref.host_id,
            "max_calls": grain.max_calls,
        }

    def decode(self, state: dict[str, Any]) -> Any:
        from repro.core.runtime import current_runtime

        info = parallel_class_table.by_name(state["class_name"])
        po_class = make_parallel_class(info.cls)
        ref = ObjRef(
            uris=tuple(state["uris"]),
            type_hint="repro.core.impl.ImplementationObject",
            host_id=state.get("host_id", ""),
        )
        runtime = current_runtime()
        impl_proxy = runtime.proxy_for_objref(ref)
        po = po_class.__new__(po_class)
        grain = RemoteGrain(
            impl_proxy, max_calls=int(state.get("max_calls", 1))
        )
        # No creation spec travels with a reference, so the rebuilt grain
        # cannot be respawned — but tracking it means node death marks it
        # lost promptly instead of leaving calls to time out.  Passing
        # *info* still wires up columnar aggregates and byte feedback.
        runtime.adopt_grain(grain, info=info)
        po._parc_grain = grain
        return po


default_registry.register_surrogate(ProxyObjectSurrogate())
