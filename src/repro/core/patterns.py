"""Algorithmic skeletons over parallel objects: Farm and Pipeline.

The paper's related work (§1, [7]) points at "implementation of higher
level programming paradigms" on these platforms; this module provides the
two skeletons every SCOOPP application in this repository hand-rolls —
as reusable, tested API:

* :class:`Farm` — N identical workers; scatter asynchronous work, map
  synchronous work with overlap (delegates), broadcast, collect.
* :class:`Pipeline` — a chain of stages connected by PO references; feed
  items at the head, drain at the tail.

Both own their POs and release them on ``close()`` / ``with``.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.runtime import new
from repro.errors import ScooppError
from repro.remoting.delegates import Delegate


class Farm:
    """A pool of identical parallel objects with scatter/map/collect.

    ::

        with Farm(PrimeServer, workers=4) as farm:
            farm.scatter("process", chunks)        # async, round-robin
            total = sum(farm.collect("count"))     # sync, one per worker
    """

    def __init__(self, cls: type, workers: int, *args: Any, **kwargs: Any) -> None:
        if workers < 1:
            raise ScooppError(f"farm needs >= 1 worker, got {workers}")
        self.workers = [new(cls, *args, **kwargs) for _ in range(workers)]
        self._next = 0
        self._closed = False

    # -- distribution --------------------------------------------------------

    def scatter(self, method: str, items: Iterable[Any]) -> int:
        """One asynchronous ``method(item)`` per item, round-robin.

        Returns the number of items dispatched.  Items are positional
        single arguments; pass tuples and unpack in the worker for more.
        """
        self._ensure_open()
        count = 0
        for item in items:
            worker = self.workers[self._next % len(self.workers)]
            getattr(worker, method)(item)
            self._next += 1
            count += 1
        return count

    def broadcast(self, method: str, *args: Any, **kwargs: Any) -> None:
        """Invoke an asynchronous method on every worker."""
        self._ensure_open()
        for worker in self.workers:
            getattr(worker, method)(*args, **kwargs)

    def map(self, method: str, items: Sequence[Any]) -> list[Any]:
        """Synchronous ``method(item)`` per item with overlap.

        Calls are issued through delegates (one in flight per worker) so
        workers compute concurrently; results come back in item order.
        """
        self._ensure_open()
        results: list[Any] = [None] * len(items)
        pending: list[tuple[int, Any]] = []  # (index, AsyncResult)
        delegates = [
            Delegate(getattr(worker, method)) for worker in self.workers
        ]
        for index, item in enumerate(items):
            delegate = delegates[index % len(self.workers)]
            pending.append((index, delegate.begin_invoke(item)))
        for index, handle in pending:
            results[index] = handle.result()
        return results

    # -- synchronization -------------------------------------------------

    def collect(self, method: str, *args: Any, **kwargs: Any) -> list[Any]:
        """Synchronous call on every worker; results in worker order.

        Also the farm's barrier: each worker's pending asynchronous work
        executes before its result (FIFO mailbox).
        """
        self._ensure_open()
        return [
            getattr(worker, method)(*args, **kwargs)
            for worker in self.workers
        ]

    def wait(self) -> None:
        """Block until every worker's queue has drained."""
        self._ensure_open()
        for worker in self.workers:
            worker.parc_wait()

    # -- lifecycle ---------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise ScooppError("farm has been closed")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            try:
                worker.parc_release()
            except ScooppError:
                pass

    def __len__(self) -> int:
        return len(self.workers)

    def __enter__(self) -> "Farm":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Pipeline:
    """A linear chain of parallel-object stages.

    Each stage class needs an asynchronous item method (default ``feed``)
    accepting one item, and should forward transformed items to the next
    stage, reachable through the ``next_stage`` attribute the pipeline
    installs via the stage's ``set_next`` method (asynchronous,
    one-argument).  The last stage's results are fetched with a
    synchronous method of the caller's choice.

    ::

        pipeline = Pipeline([(Tokenize, ()), (Count, ())])
        for line in lines:
            pipeline.feed(line)
        counts = pipeline.call_last("totals")
        pipeline.close()
    """

    def __init__(
        self,
        stages: Sequence[tuple[type, tuple]],
        feed_method: str = "feed",
        link_method: str = "set_next",
    ) -> None:
        if not stages:
            raise ScooppError("pipeline needs at least one stage")
        self.feed_method = feed_method
        self.stages = [new(cls, *args) for cls, args in stages]
        # Wire the chain back-to-front: each stage receives a PO
        # reference to its successor (§3.1 reference passing).
        for stage, successor in zip(self.stages, self.stages[1:]):
            getattr(stage, link_method)(successor)
        self._closed = False

    @property
    def head(self) -> Any:
        return self.stages[0]

    @property
    def tail(self) -> Any:
        return self.stages[-1]

    def feed(self, item: Any) -> None:
        """Push one item into the head stage (asynchronous)."""
        self._ensure_open()
        getattr(self.head, self.feed_method)(item)

    def feed_all(self, items: Iterable[Any]) -> int:
        self._ensure_open()
        count = 0
        for item in items:
            self.feed(item)
            count += 1
        return count

    def drain(self) -> None:
        """Barrier: wait until no stage has work anywhere in the chain.

        A single flow-order wait is not enough: a stage forwards items
        through its *own* PO reference to the successor, whose aggregation
        buffer and sender live inside that stage — invisible from here.
        The barrier therefore iterates to a fixed point: quiesce every
        tracked PO outbox in the process (which includes the stages'
        internal forwarding references), wait every stage, snapshot
        per-stage processed counts, and finish only when two consecutive
        sweeps observe no movement.
        """
        import time as _time

        from repro.core import runtime as _runtime_module

        self._ensure_open()
        previous: tuple[int, ...] | None = None
        stable = 0
        while stable < 2:
            runtime = _runtime_module._runtime
            if runtime is not None:
                # Without this, a forwarded item parked in a stage's
                # outbox for a few ms outlives the stability window and
                # the barrier returns early.
                runtime.quiesce_outboxes()
            for stage in self.stages:
                stage.parc_wait()
            snapshot = tuple(
                self._processed_count(stage) for stage in self.stages
            )
            if snapshot == previous:
                stable += 1
                _time.sleep(0.002)  # let in-transit sends land
            else:
                stable = 0
                previous = snapshot

    @staticmethod
    def _processed_count(stage: Any) -> int:
        grain = stage._parc_grain
        if grain.is_local:
            return grain.direct_calls
        return int(grain.impl.stats()["processed"])

    def call_last(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Drain the pipeline, then a synchronous call on the tail."""
        self.drain()
        return getattr(self.tail, method)(*args, **kwargs)

    def _ensure_open(self) -> None:
        if self._closed:
            raise ScooppError("pipeline has been closed")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for stage in self.stages:
            try:
                stage.parc_release()
            except ScooppError:
                pass

    def __len__(self) -> int:
        return len(self.stages)

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
