"""Unit tests for asynchronous delegates (BeginInvoke/EndInvoke)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import RemotingError
from repro.remoting import AsyncResult, Delegate, OneWayDelegate


class TestDelegateBasics:
    def test_sync_invoke(self):
        delegate = Delegate(lambda a, b: a + b)
        assert delegate.invoke(2, 3) == 5
        assert delegate(2, 3) == 5

    def test_non_callable_rejected(self):
        with pytest.raises(RemotingError):
            Delegate("not callable")

    def test_begin_end_invoke(self):
        delegate = Delegate(lambda x: x * 2)
        result = delegate.begin_invoke(21)
        assert delegate.end_invoke(result) == 42

    def test_end_invoke_reraises(self):
        def bomb():
            raise ValueError("kaboom")

        delegate = Delegate(bomb)
        result = delegate.begin_invoke()
        with pytest.raises(ValueError, match="kaboom"):
            delegate.end_invoke(result)

    def test_kwargs_forwarded(self):
        delegate = Delegate(lambda a, b=0: (a, b))
        result = delegate.begin_invoke(1, b=2)
        assert delegate.end_invoke(result) == (1, 2)

    def test_begin_invoke_returns_before_completion(self):
        release = threading.Event()

        def slow():
            release.wait(5)
            return "done"

        delegate = Delegate(slow)
        started = time.perf_counter()
        result = delegate.begin_invoke()
        assert time.perf_counter() - started < 1.0
        assert not result.is_completed
        release.set()
        assert delegate.end_invoke(result) == "done"


class TestAsyncResult:
    def test_is_completed_and_wait(self):
        delegate = Delegate(lambda: 1)
        result = delegate.begin_invoke()
        assert result.wait(timeout=5)
        assert result.is_completed

    def test_wait_handle_event(self):
        delegate = Delegate(lambda: 1)
        result = delegate.begin_invoke()
        assert result.async_wait_handle.wait(timeout=5)

    def test_async_state_carried(self):
        delegate = Delegate(lambda: 1)
        result = delegate.begin_invoke(state={"tag": 7})
        assert result.async_state == {"tag": 7}

    def test_result_timeout(self):
        release = threading.Event()
        delegate = Delegate(lambda: release.wait(5))
        result = delegate.begin_invoke()
        with pytest.raises(Exception):
            result.result(timeout=0.01)
        release.set()

    def test_callback_invoked_with_result(self):
        seen = []
        done = threading.Event()

        def callback(async_result: AsyncResult) -> None:
            seen.append(async_result.result())
            done.set()

        delegate = Delegate(lambda: "value")
        delegate.begin_invoke(callback=callback)
        assert done.wait(5)
        assert seen == ["value"]


class TestConcurrency:
    def test_many_parallel_invocations(self):
        delegate = Delegate(lambda index: index * index)
        results = [delegate.begin_invoke(index) for index in range(50)]
        values = [delegate.end_invoke(result) for result in results]
        assert values == [index * index for index in range(50)]

    def test_blocked_invocations_all_run_on_the_process_executor(self):
        # More invocations blocked at once than a 32-thread pool holds:
        # each still gets a thread (the paper's §4 starvation claim).
        barrier = threading.Barrier(40, timeout=10)

        def meet():
            barrier.wait()
            return threading.current_thread().name

        delegate = Delegate(meet)
        results = [delegate.begin_invoke() for _ in range(40)]
        names = {delegate.end_invoke(result, timeout=20) for result in results}
        assert names == {"parc-exec"}


class TestOneWayDelegate:
    def test_executes_but_hides_result(self):
        done = threading.Event()

        def work():
            done.set()
            return "never seen"

        delegate = OneWayDelegate(work)
        result = delegate.begin_invoke()
        assert done.wait(5)
        with pytest.raises(RemotingError):
            delegate.end_invoke(result)
