"""Credit-based backpressure: the client gate and the server grantor.

The protocol rides the existing frame format (see
:mod:`repro.channels.framing`): a client that understands credits sets
``FLAG_CREDIT`` on its request frames; the server answers with the flag
set and a 4-byte window grant after the optional correlation id.  Old
peers interoperate unchanged — servers ignore unknown request flag bits,
and a response without the flag simply carries no grant.

Client side, one :class:`CreditGate` per authority bounds in-flight
requests to the most recent grant.  A full gate makes the sender *stall*
(the PO's send run blocks inside the channel on its executor thread, so
aggregation buffers absorb the wait; the stall is the executor's managed
blocking, so the thread leaves the pool's runnable count meanwhile); a
stall longer than the budget becomes a typed
:class:`~repro.errors.OverloadError` — which is a
:class:`~repro.errors.ChannelError`, so a wrapping circuit breaker
counts sustained shedding as failures and eventually quarantines the
peer.

Server side, a :class:`CreditGrantor` shrinks the advertised window as
pressure rises (dispatch backlog, mailbox fill), down to a floor of
:data:`MIN_GRANT` so a throttled peer can always probe for recovery.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import OverloadError
from repro.executor import blocking

#: Default in-flight window per peer, both the gate's starting point
#: (before any grant arrives) and the grantor's unloaded advertisement.
DEFAULT_WINDOW = 64

#: How long a sender may stall waiting for credit before the call is
#: shed with :class:`OverloadError`.
DEFAULT_STALL_TIMEOUT_S = 5.0

#: Grants never drop below this: a starved peer must be able to probe.
MIN_GRANT = 1


class CreditGate:
    """Client-side send gate: at most *window* requests in flight.

    Thread-safe; the window is resized live by :meth:`observe_grant`
    whenever a response carries a server grant.  Shrinking below the
    current in-flight count is legal — no new sends are admitted until
    enough releases bring the count under the new window.
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S,
        metrics=None,  # type: ignore[no-untyped-def]
    ) -> None:
        if window < 1:
            raise ValueError("credit window must be >= 1")
        self._window = window
        self._stall_timeout_s = stall_timeout_s
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._in_flight = 0
        self._waiters = 0
        if metrics is not None:
            self._stalls = metrics.counter(
                "flow.credit.stalls", "sends that waited for credit"
            )
            self._sheds = metrics.counter(
                "flow.credit.sheds", "sends shed after the stall budget"
            )
            self._stall_seconds = metrics.histogram(
                "flow.credit.stall_seconds",
                help_text="time senders spent waiting for credit",
            )
            self._window_gauge = metrics.gauge(
                "flow.credit.window", "most recent granted window"
            )
            self._window_gauge.set(window)
        else:
            self._stalls = None
            self._sheds = None
            self._stall_seconds = None
            self._window_gauge = None

    @property
    def window(self) -> int:
        with self._lock:
            return self._window

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def acquire(self) -> None:
        """Take one credit; stall while the window is full.

        Raises :class:`OverloadError` if no credit frees up within the
        stall budget — the typed fail-fast signal retry policies must
        not amplify.
        """
        with self._available:
            if self._in_flight < self._window:
                self._in_flight += 1
                return
            if self._stalls is not None:
                self._stalls.inc()
            deadline = time.monotonic() + self._stall_timeout_s
            started = time.monotonic()
            self._waiters += 1
            try:
                with blocking():
                    while self._in_flight >= self._window:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            if self._sheds is not None:
                                self._sheds.inc()
                            raise OverloadError(
                                f"no send credit after "
                                f"{self._stall_timeout_s:.3g}s (window "
                                f"{self._window}, in flight "
                                f"{self._in_flight})"
                            )
                        self._available.wait(remaining)
            finally:
                self._waiters -= 1
            self._in_flight += 1
            if self._stall_seconds is not None:
                self._stall_seconds.observe(time.monotonic() - started)

    def release(self) -> None:
        """Return one credit (response received or send failed)."""
        with self._available:
            if self._in_flight > 0:
                self._in_flight -= 1
            # notify() with nobody waiting still pays the waiter-queue
            # walk; this sits on every call's return path, so skip it.
            if self._waiters:
                self._available.notify()

    def observe_grant(self, grant: int) -> None:
        """Adopt a server-advertised window from a response frame."""
        if grant < MIN_GRANT:
            grant = MIN_GRANT
        # Steady state: the server re-advertises the same window on every
        # response.  A stale unlocked read at worst falls through to the
        # locked path below.
        if grant == self._window:
            return
        with self._available:
            if grant == self._window:
                return
            grew = grant > self._window
            self._window = grant
            if self._window_gauge is not None:
                self._window_gauge.set(grant)
            if grew:
                self._available.notify_all()


class CreditGrantor:
    """Server-side window computation from live pressure signals.

    *sources* are callables returning a pressure fraction in ``[0, 1]``
    (0 = idle, 1 = saturated); the advertised window scales down
    linearly with the worst of them.  Sources must be cheap — they run
    on every response — and must never raise (failures read as idle).
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError("grantor window must be >= 1")
        self.window = window
        self._sources: list[Callable[[], float]] = []

    def add_source(self, source: Callable[[], float]) -> None:
        self._sources.append(source)

    def pressure(self) -> float:
        worst = 0.0
        for source in self._sources:
            try:
                value = source()
            except Exception:  # noqa: BLE001 - pressure must never fail a call
                continue
            if value > worst:
                worst = value
        return min(1.0, max(0.0, worst))

    def grant(self) -> int:
        if not self._sources:  # window >= 1 is enforced by __init__
            return self.window
        return max(MIN_GRANT, int(self.window * (1.0 - self.pressure())))
