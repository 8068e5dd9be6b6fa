"""Parallel classes the benchmark places on worker processes.

Worker processes import this module at boot (``worker_modules``), which
registers the classes under their wire names.  It must stay importable
on its own: spawn re-imports the entry script as ``__mp_main__``, and a
``@parallel`` class defined there would register twice (README, trap 1).
"""

from __future__ import annotations

import os
import time

from repro.core.model import parallel

#: ``perf_counter_ns`` at each :meth:`StampedEcho.echo` execution.  Only
#: the in-process ladder rungs use that class, so the list shares the
#: clock (and the address space) of the spans it is matched against.
user_stamps: list[int] = []


@parallel(name="parcbench.Echo", sync_methods=["echo", "whoami"])
class Echo:
    """The paper's ping-pong partner: the argument comes straight back."""

    def echo(self, values):  # type: ignore[no-untyped-def]
        return values

    def whoami(self) -> int:
        return os.getpid()


@parallel(name="parcbench.StampedEcho", sync_methods=["echo"])
class StampedEcho:
    """:class:`Echo` for the traced rungs: records when the method ran."""

    def echo(self, values):  # type: ignore[no-untyped-def]
        user_stamps.append(time.perf_counter_ns())
        return values


@parallel(
    name="parcbench.Counter",
    async_methods=["tick"],
    sync_methods=["count", "whoami"],
)
class Counter:
    """Sink for asynchronous calls; ``count`` is the barrier and the check."""

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0

    def tick(self, value: int) -> None:
        self.calls += 1
        self.total += value

    def count(self) -> tuple:
        return (self.calls, self.total)

    def whoami(self) -> int:
        return os.getpid()
