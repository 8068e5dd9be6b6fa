"""Per-authority circuit breakers for the channel client path.

A dead peer makes every call pay a full connect timeout before failing.
The breaker quarantines an authority after repeated transport failures:
subsequent calls fail in microseconds with
:class:`~repro.errors.CircuitOpenError` instead of re-dialling a corpse.
Classic three-state machine:

* **closed** — calls flow; consecutive transport failures are counted.
* **open** — every call is rejected immediately; after
  ``reset_timeout_s`` the breaker moves to half-open.
* **half-open** — a limited number of probe calls go through; one
  success closes the circuit, one failure re-opens it (and restarts the
  timeout).

:class:`CircuitOpenError` is a :class:`~repro.errors.ChannelError`, so
retry policies treat a rejected call like any other transport failure —
with jittered backoff, retries naturally span the reset timeout and
ride through a half-open recovery.

The :class:`BreakerChannel` wrapper keeps the inner channel's scheme,
so ObjRef URIs are unchanged and it can be layered under or over the
chaos channel freely.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.channels.base import Channel, RequestHandler, ServerBinding
from repro.errors import ChannelError, CircuitOpenError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import MetricsRegistry

#: Breaker states (module constants, not an enum, to keep compares cheap).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """When to trip and how to probe for recovery."""

    failure_threshold: int = 5  # consecutive failures before opening
    reset_timeout_s: float = 1.0  # open -> half-open after this long
    half_open_probes: int = 1  # concurrent probes allowed half-open

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


class CircuitBreaker:
    """One authority's breaker state machine (thread-safe)."""

    def __init__(
        self,
        authority: str,
        policy: BreakerPolicy | None = None,
        clock=time.monotonic,  # type: ignore[no-untyped-def]
        on_transition=None,  # type: ignore[no-untyped-def]
    ) -> None:
        self.authority = authority
        self.policy = policy if policy is not None else BreakerPolicy()
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state()

    def _peek_state(self) -> str:
        # Caller holds the lock.  Open circuits lazily become half-open
        # once the reset timeout elapses; no background timer needed.
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.policy.reset_timeout_s
        ):
            self._transition(HALF_OPEN)
        return self._state

    def _transition(self, new_state: str) -> None:
        old, self._state = self._state, new_state
        if new_state == HALF_OPEN:
            self._probes_in_flight = 0
        if new_state == CLOSED:
            self._failures = 0
        if old != new_state and self._on_transition is not None:
            self._on_transition(self.authority, old, new_state)

    # -- the call protocol -------------------------------------------------

    def before_call(self) -> None:
        """Gate one call; raises :class:`CircuitOpenError` if quarantined."""
        with self._lock:
            state = self._peek_state()
            if state == CLOSED:
                return
            if state == HALF_OPEN:
                if self._probes_in_flight < self.policy.half_open_probes:
                    self._probes_in_flight += 1
                    return
            raise CircuitOpenError(
                f"circuit open for {self.authority} "
                f"({self._failures} consecutive failures)"
            )

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._transition(CLOSED)
            self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == HALF_OPEN:
                # The probe failed: back to quarantine, restart the clock.
                self._opened_at = self._clock()
                self._transition(OPEN)
            elif (
                self._state == CLOSED
                and self._failures >= self.policy.failure_threshold
            ):
                self._opened_at = self._clock()
                self._transition(OPEN)

    def reset(self) -> None:
        """Force-close (e.g. after the failure detector sees the node up)."""
        with self._lock:
            self._transition(CLOSED)


class BreakerChannel(Channel):
    """Channel wrapper applying a per-authority circuit breaker.

    Transparent to URIs: ``scheme`` is inherited from the inner channel.
    Any :class:`~repro.errors.ChannelError` / :class:`ConnectionError`
    from the inner call counts as a failure; rejections raised by the
    breaker itself do not feed back into the count.
    """

    def __init__(
        self,
        inner: Channel,
        policy: BreakerPolicy | None = None,
        metrics: "MetricsRegistry | None" = None,
        clock=time.monotonic,  # type: ignore[no-untyped-def]
    ) -> None:
        super().__init__(inner.formatter)
        self.inner = inner
        self.scheme = inner.scheme
        self.policy = policy if policy is not None else BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._opened = metrics.counter(
            "breaker.opened", "circuits tripped open"
        ) if metrics else None
        self._closed = metrics.counter(
            "breaker.closed", "circuits recovered closed"
        ) if metrics else None
        self._rejected = metrics.counter(
            "breaker.rejected", "calls rejected while open"
        ) if metrics else None

    def breaker_for(self, authority: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(authority)
            if breaker is None:
                breaker = CircuitBreaker(
                    authority,
                    self.policy,
                    clock=self._clock,
                    on_transition=self._note_transition,
                )
                self._breakers[authority] = breaker
            return breaker

    def state_of(self, authority: str) -> str:
        return self.breaker_for(authority).state

    def _note_transition(self, authority: str, old: str, new: str) -> None:
        if new == OPEN and self._opened is not None:
            self._opened.inc()
        if new == CLOSED and old != CLOSED and self._closed is not None:
            self._closed.inc()
        from repro.telemetry import active_tracer

        tracer = active_tracer()
        if tracer is not None:
            tracer.instant(
                "breaker",
                f"breaker.{new}",
                authority=authority,
                previous=old,
            )

    # -- Channel interface -------------------------------------------------

    def listen(self, authority: str, handler: RequestHandler) -> ServerBinding:
        return self.inner.listen(authority, handler)

    def call(
        self,
        authority: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str] | None = None,
    ) -> bytes:
        breaker = self.breaker_for(authority)
        try:
            breaker.before_call()
        except CircuitOpenError:
            if self._rejected is not None:
                self._rejected.inc()
            raise
        try:
            response = self.inner.call(authority, path, body, headers)
        except (ChannelError, ConnectionError):
            breaker.record_failure()
            raise
        breaker.record_success()
        return response

    def close(self) -> None:
        self.inner.close()
