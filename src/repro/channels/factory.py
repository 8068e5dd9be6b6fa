"""Scheme-registry channel factory: ``channels.create("chaos+aio")``.

Every subsystem that used to hand-roll a per-scheme ``if/elif`` ladder
(the cluster, the process-worker boot code, the benchmark drivers, tests)
builds channels here instead.  A *kind* is a ``+``-separated stack read
right to left: the last segment names a base transport, every earlier
segment names a wrapper applied around it — ``"breaker+chaos+tcp"`` is a
TCP channel inside a fault injector inside a circuit breaker, the
stacking order the cluster uses so injected faults trip the breaker like
organic ones.

Applications can extend both tables: :func:`register_scheme` adds a base
transport, :func:`register_wrapper` adds a wrapper prefix.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.channels.base import Channel
from repro.errors import ChannelError

_registry_lock = threading.Lock()


def _make_loopback(**opts: Any) -> Channel:
    from repro.channels.loopback import LoopbackChannel

    return LoopbackChannel(**opts)


def _make_tcp(**opts: Any) -> Channel:
    from repro.channels.tcp import TcpChannel

    return TcpChannel(**opts)


def _make_http(**opts: Any) -> Channel:
    from repro.channels.http import HttpChannel

    return HttpChannel(**opts)


def _make_aio(**opts: Any) -> Channel:
    from repro.aio import AioTcpChannel

    return AioTcpChannel(**opts)


def _make_shm(**opts: Any) -> Channel:
    from repro.shm import ShmChannel

    return ShmChannel(**opts)


def _wrap_chaos(
    inner: Channel,
    *,
    chaos_plan: Any = None,
    chaos_controller: Any = None,
    metrics: Any = None,
) -> Channel:
    from repro.chaos import FaultyChannel

    return FaultyChannel(
        inner, plan=chaos_plan, controller=chaos_controller, metrics=metrics
    )


def _wrap_breaker(
    inner: Channel,
    *,
    breaker_policy: Any = None,
    metrics: Any = None,
) -> Channel:
    from repro.channels.breaker import BreakerChannel

    return BreakerChannel(inner, policy=breaker_policy, metrics=metrics)


_SCHEMES: dict[str, Callable[..., Channel]] = {
    "loopback": _make_loopback,
    "tcp": _make_tcp,
    "http": _make_http,
    "aio": _make_aio,
    "shm": _make_shm,
}

#: Wrapper options each prefix consumes from ``create``'s kwargs.
_WRAPPER_OPTS = {
    "chaos": ("chaos_plan", "chaos_controller", "metrics"),
    "breaker": ("breaker_policy", "metrics"),
}

_WRAPPERS: dict[str, Callable[..., Channel]] = {
    "chaos": _wrap_chaos,
    "breaker": _wrap_breaker,
}


def register_scheme(
    name: str, factory: Callable[..., Channel], replace: bool = False
) -> None:
    """Register a base transport under *name* (e.g. ``"quic"``).

    *factory* is called as ``factory(**opts)`` with whatever base-channel
    options :func:`create` received.
    """
    if "+" in name or not name:
        raise ChannelError(f"invalid scheme name {name!r}")
    with _registry_lock:
        if name in _SCHEMES and not replace:
            raise ChannelError(f"scheme {name!r} is already registered")
        _SCHEMES[name] = factory


def register_wrapper(
    name: str,
    wrap: Callable[..., Channel],
    opt_names: tuple[str, ...] = (),
    replace: bool = False,
) -> None:
    """Register a wrapper prefix (called as ``wrap(inner, **opts)``).

    *opt_names* lists the :func:`create` keyword arguments forwarded to
    the wrapper (unknown kwargs are rejected by ``create``).
    """
    if "+" in name or not name:
        raise ChannelError(f"invalid wrapper name {name!r}")
    with _registry_lock:
        if name in _WRAPPERS and not replace:
            raise ChannelError(f"wrapper {name!r} is already registered")
        _WRAPPERS[name] = wrap
        _WRAPPER_OPTS[name] = tuple(opt_names)


def available_kinds() -> tuple[str, ...]:
    """Registered base schemes (wrappers compose with any of them)."""
    with _registry_lock:
        return tuple(sorted(_SCHEMES))


def create(
    kind: str,
    *,
    chaos_plan: Any = None,
    chaos_controller: Any = None,
    breaker_policy: Any = None,
    metrics: Any = None,
    **base_opts: Any,
) -> Channel:
    """Build the channel stack named by *kind*.

    ``kind`` is ``[wrapper+[wrapper+...]]base``; wrapper-specific options
    (``chaos_plan``, ``chaos_controller``, ``breaker_policy``,
    ``metrics``) are routed to the wrapper that consumes them, and any
    remaining keyword arguments go to the base-transport constructor.
    Options for a wrapper that is not part of *kind* are an error — a
    silently ignored ``chaos_plan`` would run a test without its faults.
    """
    parts = kind.split("+")
    base_name, wrapper_names = parts[-1], parts[:-1]
    with _registry_lock:
        base_factory = _SCHEMES.get(base_name)
        wrappers = []
        for name in wrapper_names:
            wrap = _WRAPPERS.get(name)
            if wrap is None:
                raise ChannelError(
                    f"unknown channel wrapper {name!r} in kind {kind!r}"
                )
            wrappers.append((name, wrap, _WRAPPER_OPTS.get(name, ())))
    if base_factory is None:
        raise ChannelError(
            f"unknown channel kind {kind!r}; base schemes: "
            f"{', '.join(available_kinds())}"
        )
    wrapper_opts = {
        "chaos_plan": chaos_plan,
        "chaos_controller": chaos_controller,
        "breaker_policy": breaker_policy,
        "metrics": metrics,
    }
    consumed = set()
    for name, _wrap, opt_names in wrappers:
        consumed.update(opt_names)
        for opt in opt_names:
            # Registered wrappers may declare options beyond the
            # well-known four; those arrive through **base_opts and are
            # claimed here so the base factory never sees them.
            if opt not in wrapper_opts and opt in base_opts:
                wrapper_opts[opt] = base_opts.pop(opt)
    unused = {
        opt
        for opt, value in wrapper_opts.items()
        if value is not None and opt not in consumed and opt != "metrics"
    }
    if unused:
        raise ChannelError(
            f"options {sorted(unused)} have no consumer in kind {kind!r}"
        )
    channel = base_factory(**base_opts)
    # Apply wrappers right to left: the leftmost prefix is outermost.
    for name, wrap, opt_names in reversed(wrappers):
        opts = {
            opt: wrapper_opts[opt]
            for opt in opt_names
            if wrapper_opts.get(opt) is not None
        }
        channel = wrap(channel, **opts)
    return channel
