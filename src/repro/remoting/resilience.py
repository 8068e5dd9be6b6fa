"""Retry helpers for transient remote failures.

Placement-level failover lives in the runtime (a dead node is excluded
and creation retried elsewhere); this module covers the *call* side: a
transient transport failure — connection reset, briefly unreachable peer —
is often worth retrying before surfacing to the application.

Only transport-level errors are retried by default.  Application errors
(:class:`~repro.errors.RemoteInvocationError`) are never retried: the
remote method ran and failed, and re-running it is a semantic decision
only the caller can make.

Overload signals are never retried either, even though they are
:class:`~repro.errors.ChannelError`\\ s: :class:`~repro.errors.OverloadError`
(the peer or the send path shed the call) and
:class:`~repro.errors.CircuitOpenError` (the breaker quarantined the
peer) both mean "back off" — retrying amplifies exactly the load that
caused them.  :attr:`RetryPolicy.no_retry_on` carries that veto and is
consulted before every retry, whatever ``retry_on`` matches.
"""

from __future__ import annotations

import os
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.errors import (
    AddressError,
    ChannelError,
    CircuitOpenError,
    OverloadError,
)

T = TypeVar("T")

_jitter_rng = random.Random()
# Forked workers must not replay one another's jitter.
os.register_at_fork(after_in_child=_jitter_rng.seed)


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry: attempts, initial backoff, exponential factor.

    *jitter* spreads each sleep uniformly over ``[delay * (1 - jitter),
    delay * (1 + jitter)]`` so callers that failed together (a node
    died under fan-out) do not retry in lockstep and re-stampede the
    recovering peer.
    """

    attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.2
    retry_on: tuple[type[BaseException], ...] = (ChannelError,)
    #: Types never retried even when ``retry_on`` matches them.  The
    #: defaults are the typed overload signals: re-sending a shed call
    #: feeds the very overload that shed it.
    no_retry_on: tuple[type[BaseException], ...] = (
        OverloadError,
        CircuitOpenError,
    )

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be >= 0 with factor >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def sleep_for(self, delay: float) -> float:
        """The actual sleep for a nominal *delay*, jitter applied."""
        if self.jitter == 0.0 or delay <= 0.0:
            return delay
        spread = delay * self.jitter
        return delay + _jitter_rng.uniform(-spread, spread)


def call_with_retry(
    fn: Callable[..., T],
    *args: Any,
    policy: RetryPolicy | None = None,
    **kwargs: Any,
) -> T:
    """Invoke *fn* with retries per *policy*; re-raises the last error.

    Typical use with a transparent proxy::

        result = call_with_retry(proxy.fetch, key, policy=RetryPolicy(5))
    """
    active = policy if policy is not None else RetryPolicy()
    delay = active.backoff_s
    last: BaseException | None = None
    for attempt in range(active.attempts):
        try:
            return fn(*args, **kwargs)
        except active.retry_on as exc:  # type: ignore[misc]
            if isinstance(exc, active.no_retry_on):
                raise
            last = exc
            if attempt + 1 < active.attempts and delay > 0:
                time.sleep(active.sleep_for(delay))
                delay *= active.backoff_factor
    assert last is not None  # attempts >= 1 guarantees an exception here
    raise last


class retrying:
    """Decorator form: ``@retrying(RetryPolicy(attempts=5))``."""

    def __init__(self, policy: RetryPolicy | None = None) -> None:
        self.policy = policy if policy is not None else RetryPolicy()

    def __call__(self, fn: Callable[..., T]) -> Callable[..., T]:
        def wrapper(*args: Any, **kwargs: Any) -> T:
            return call_with_retry(fn, *args, policy=self.policy, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        return wrapper


def is_transport_error(error: BaseException) -> bool:
    """True for failures meaning "the peer may be gone", not "it said no".

    Classification is strictly by exception type — no message sniffing:

    * :class:`~repro.errors.RemoteInvocationError` is never a transport
      error: the remote method ran and raised, so the peer is alive;
    * :class:`~repro.errors.AddressError` is a malformed/unresolvable
      address — retrying cannot fix it;
    * every other :class:`~repro.errors.ChannelError` (including
      :class:`~repro.errors.CircuitOpenError` and chaos-injected
      faults), plus OS-level :class:`ConnectionError`,
      :class:`TimeoutError` and :class:`socket.timeout`, means the wire
      or the peer failed mid-flight.
    """
    from repro.errors import RemoteInvocationError

    if isinstance(error, (RemoteInvocationError, AddressError)):
        return False
    return isinstance(
        error, (ChannelError, ConnectionError, TimeoutError, socket.timeout)
    )
