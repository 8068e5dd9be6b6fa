"""ChaosController: scripted failure scenarios over faulty channels.

The :class:`~repro.chaos.faults.FaultPlan` answers "fail 2% of calls,
forever"; the controller answers "kill node 2 one second in" and "drop
30% of everything for the next 500 ms" — the scenario language an
integration test or demo speaks:

    controller = ChaosController(seed=42)
    controller.kill_after(1.0, node.base_uri)        # node 2 dies at t=1s
    controller.drop_for(0.5, rate=0.3)               # 30% drop window
    ...
    controller.close()                               # cancel scripted actions

One controller is shared by every :class:`~repro.chaos.FaultyChannel` of
a cluster, so a kill verdict applies no matter which node's channel
carries the call.  Authorities may be given bare (``127.0.0.1:4711``) or
as base URIs (``chaos+tcp://127.0.0.1:4711``); schemes are stripped.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.chaos.faults import FaultDecision, FaultKind
from repro.executor import TimerCall, executor, timer


def strip_scheme(authority_or_uri: str) -> str:
    """``scheme://host:port[/...]`` → ``host:port`` (idempotent)."""
    _scheme, sep, rest = authority_or_uri.partition("://")
    if not sep:
        return authority_or_uri
    return rest.split("/", 1)[0]


@dataclass(frozen=True)
class _Window:
    """One probabilistic fault window: *kind* at *rate* until *until*."""

    kind: FaultKind
    rate: float
    until: float
    authority: str | None  # None = every authority


class ChaosController:
    """Scripted, time-targeted fault injection shared across channels.

    Thread-safe; scripted actions scheduled with :meth:`at` /
    :meth:`kill_after` are armed on the process timer, and the pending
    ones must be cancelled with :meth:`close` when the scenario ends.
    """

    def __init__(
        self,
        seed: int = 0,
        clock=time.monotonic,  # type: ignore[no-untyped-def]
    ) -> None:
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._clock = clock
        self._killed: set[str] = set()
        self._windows: list[_Window] = []
        self._timers: set[TimerCall] = set()  # armed, not yet fired
        self._closed = False

    # -- verdicts ----------------------------------------------------------

    def kill(self, authority_or_uri: str) -> None:
        """Every call to this authority fails to connect from now on."""
        with self._lock:
            self._killed.add(strip_scheme(authority_or_uri))

    def revive(self, authority_or_uri: str) -> None:
        with self._lock:
            self._killed.discard(strip_scheme(authority_or_uri))

    def is_killed(self, authority_or_uri: str) -> bool:
        with self._lock:
            return strip_scheme(authority_or_uri) in self._killed

    def killed_authorities(self) -> list[str]:
        with self._lock:
            return sorted(self._killed)

    def drop_for(
        self,
        duration_s: float,
        rate: float = 1.0,
        kind: FaultKind = FaultKind.SEND_DROP,
        authority: str | None = None,
    ) -> None:
        """Fail *rate* of calls with *kind* for the next *duration_s*."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate out of [0, 1]: {rate}")
        window = _Window(
            kind=kind,
            rate=rate,
            until=self._clock() + duration_s,
            authority=strip_scheme(authority) if authority else None,
        )
        with self._lock:
            self._windows.append(window)

    # -- scripting ---------------------------------------------------------

    def at(self, delay_s: float, action, *args) -> TimerCall:  # type: ignore[no-untyped-def]
        """Run *action(args)* on the process executor after *delay_s*."""
        return self._script(
            delay_s, lambda: executor().submit(lambda: action(*args))
        )

    def kill_after(self, delay_s: float, authority_or_uri: str) -> TimerCall:
        """Scenario verb: "kill node X at t=delay_s"."""
        return self._script(delay_s, lambda: self.kill(authority_or_uri))

    def revive_after(self, delay_s: float, authority_or_uri: str) -> TimerCall:
        return self._script(delay_s, lambda: self.revive(authority_or_uri))

    def _script(self, delay_s: float, fire: Callable[[], None]) -> TimerCall:
        # *fire* runs on the timer thread, so it must not block: kill and
        # revive take only our lock; any other action goes to the executor.
        def due() -> None:
            with self._lock:
                if self._closed:
                    return
                self._timers.discard(call)
            fire()

        with self._lock:
            if self._closed:
                raise RuntimeError("controller is closed")
            call = timer().call_later(delay_s, due)
            self._timers.add(call)
        return call

    # -- the channel-facing surface ---------------------------------------

    def decide(self, authority: str) -> FaultDecision | None:
        """Scripted decision for one call, or None to defer to the plan."""
        authority = strip_scheme(authority)
        now = self._clock()
        with self._lock:
            if authority in self._killed:
                return FaultDecision(FaultKind.CONNECT_REFUSED)
            live = [w for w in self._windows if w.until > now]
            if len(live) != len(self._windows):
                self._windows = live
            for window in live:
                if window.authority not in (None, authority):
                    continue
                if self._rng.random() < window.rate:
                    return FaultDecision(window.kind)
        return None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Cancel pending scripted actions (idempotent)."""
        with self._lock:
            self._closed = True
            pending, self._timers = self._timers, set()
        for call in pending:
            call.cancel()

    def __enter__(self) -> "ChaosController":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
