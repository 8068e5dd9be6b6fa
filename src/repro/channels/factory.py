"""Scheme-registry channel factory: ``channels.create("chaos+tcp")``.

Every subsystem that used to hand-roll a per-scheme ``if/elif`` ladder
(the cluster, the process-worker boot code, the benchmark drivers, tests)
builds channels here instead.  A *kind* is a base transport name,
optionally prefixed by ``chaos+`` — ``"chaos+tcp"`` is a TCP channel
inside a fault injector (:class:`~repro.chaos.FaultyChannel`).

Applications (and benchmark drivers) can add or replace a base
transport with :func:`register_scheme`.
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


_SCHEMES: dict[str, Callable[..., Channel]] = {
    "loopback": _make_loopback,
    "tcp": _make_tcp,
    "http": _make_http,
    "aio": _make_aio,
    "shm": _make_shm,
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


def available_kinds() -> tuple[str, ...]:
    """Registered base schemes (``chaos+`` wraps any of them)."""
    with _registry_lock:
        return tuple(sorted(_SCHEMES))


def create(
    kind: str,
    *,
    chaos_plan: Any = None,
    chaos_controller: Any = None,
    metrics: Any = None,
    **base_opts: Any,
) -> Channel:
    """Build the channel named by *kind*: ``base`` or ``chaos+base``.

    ``chaos_plan``, ``chaos_controller`` and ``metrics`` go to the
    ``chaos+`` wrapper; any remaining keyword arguments go to the
    base-transport constructor.  A chaos option without the ``chaos+``
    prefix is an error — a silently ignored ``chaos_plan`` would run a
    test without its faults.
    """
    chaos = kind.startswith("chaos+")
    base_name = kind[len("chaos+"):] if chaos else kind
    if "+" in base_name:
        raise ChannelError(
            f"unknown channel wrapper in kind {kind!r}; the one wrapper "
            "is 'chaos+'"
        )
    with _registry_lock:
        base_factory = _SCHEMES.get(base_name)
    if base_factory is None:
        raise ChannelError(
            f"unknown channel kind {kind!r}; base schemes: "
            f"{', '.join(available_kinds())}"
        )
    if not chaos:
        if chaos_plan is not None or chaos_controller is not None:
            raise ChannelError(
                "options chaos_plan/chaos_controller have no consumer in "
                f"kind {kind!r}"
            )
        return base_factory(**base_opts)
    return _wrap_chaos(
        base_factory(**base_opts),
        chaos_plan=chaos_plan,
        chaos_controller=chaos_controller,
        metrics=metrics,
    )
