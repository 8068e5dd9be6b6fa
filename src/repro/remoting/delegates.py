"""Asynchronous invocation via delegates (BeginInvoke / EndInvoke).

Paper §2: "C# Remoting also includes support for asynchronous method
invocation through delegates.  A delegate can perform a method call in
background and provides a mechanism to get the remote method return value,
if required.  In Java, a similar functionality must be explicitly
programmed using threads."

A :class:`Delegate` wraps any callable — typically a
:class:`~repro.remoting.proxy.RemoteMethod` — and ``begin_invoke`` runs it
on the process executor (:func:`repro.executor.executor`), returning an
:class:`AsyncResult` whose ``end_invoke`` joins and yields the value (or
re-raises).  This is exactly the .Net split: the remote call itself is
synchronous on the wire; the *client* offloads the wait.

The paper blames part of ParC#'s slowdown on Mono's *too small* thread
pool (§4): "limiting the number of running threads ... produces
starvation".  Delegate invocations mostly block on the network, and one
may wait on another, so they share the executor that runs every grain of
the process, which has no cap: a run that finds no idle thread starts
one, so no invocation waits behind a blocked one.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import Future
from typing import Any, Callable

from repro.errors import RemotingError
from repro.executor import executor


class AsyncResult:
    """Handle to an in-flight delegate invocation (the .Net IAsyncResult)."""

    def __init__(self, future: Future, async_state: Any = None) -> None:
        self._future = future
        self.async_state = async_state
        self._wait_handle = threading.Event()
        future.add_done_callback(lambda _f: self._wait_handle.set())

    @property
    def is_completed(self) -> bool:
        return self._future.done()

    @property
    def async_wait_handle(self) -> threading.Event:
        """Event signalled on completion (the WaitHandle analog)."""
        return self._wait_handle

    def wait(self, timeout: float | None = None) -> bool:
        """Block until completion; True if completed within *timeout*."""
        return self._wait_handle.wait(timeout)

    def result(self, timeout: float | None = None) -> Any:
        """Alias for :meth:`end_invoke` with a timeout, future-style."""
        return self._future.result(timeout)


class Delegate:
    """Wraps a callable for background invocation.

    Mirrors the generated code of the paper's Fig. 4::

        RemoteAsyncDelegate RemoteDel = new RemoteAsyncDelegate(obj.process);
        IAsyncResult RemAr = RemoteDel.BeginInvoke(num, null, null);

    becomes::

        remote_del = Delegate(obj.process)
        rem_ar = remote_del.begin_invoke(num)
        ...
        remote_del.end_invoke(rem_ar)      # if the value is needed
    """

    def __init__(self, target: Callable[..., Any]) -> None:
        if not callable(target):
            raise RemotingError(f"delegate target {target!r} is not callable")
        self.target = target

    def invoke(self, *args: Any, **kwargs: Any) -> Any:
        """Synchronous invocation (the plain ``Invoke``)."""
        return self.target(*args, **kwargs)

    __call__ = invoke

    def begin_invoke(
        self,
        *args: Any,
        callback: Callable[[AsyncResult], None] | None = None,
        state: Any = None,
        **kwargs: Any,
    ) -> AsyncResult:
        """Start the call in background; returns an :class:`AsyncResult`.

        *callback*, if given, runs on the worker thread after completion
        with the AsyncResult (the .Net AsyncCallback convention); *state*
        is stored on the result as ``async_state``.
        """
        # Run under a copy of the caller's context: the active trace
        # context (and node tracer) follow the call onto the executor
        # thread, so spans made by the background invocation chain to
        # the caller.
        ctx = contextvars.copy_context()
        future: Future = Future()

        def run() -> None:
            future.set_running_or_notify_cancel()
            try:
                future.set_result(ctx.run(self.target, *args, **kwargs))
            except Exception as exc:  # noqa: BLE001 - end_invoke re-raises it
                future.set_exception(exc)

        executor().submit(run, attach=True)
        async_result = AsyncResult(future, async_state=state)
        if callback is not None:
            future.add_done_callback(lambda _f: callback(async_result))
        return async_result

    def end_invoke(self, async_result: AsyncResult, timeout: float | None = None) -> Any:
        """Join the call: return its value or re-raise its exception."""
        return async_result.result(timeout)


class OneWayDelegate(Delegate):
    """Delegate whose begin_invoke drops the result (void async calls).

    SCOOPP's asynchronous parallel-object methods return nothing (§3.1:
    "asynchronous (when no value is returned)"); this variant makes the
    intent explicit and refuses ``end_invoke``.
    """

    def end_invoke(self, async_result: AsyncResult, timeout: float | None = None) -> Any:
        raise RemotingError("OneWayDelegate results cannot be retrieved")
