"""In-process channel: full serialization path, no sockets.

Used for single-process clusters (simulated nodes) and tests.  The request
body still crosses a real ``bytes`` boundary — the handler receives a copy
of the serialized payload, exactly as it would off a socket — so every
formatter/dispatch bug a socket channel would expose shows up here too,
deterministically and fast.
"""

from __future__ import annotations

import itertools
import threading
from typing import Mapping

from repro.channels.base import (
    Channel,
    RequestHandler,
    ServerBinding,
    reply_bytes,
)
from repro.errors import AddressError, ChannelClosedError, ChannelError
from repro.serialization import BinaryFormatter


class _LoopbackRegistry:
    """Process-wide table of listening loopback authorities."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._handlers: dict[str, RequestHandler] = {}
        self._counter = itertools.count(1)

    def bind(self, authority: str, handler: RequestHandler) -> str:
        with self._lock:
            if authority in ("", "0", "auto"):
                authority = f"inproc-{next(self._counter)}"
            if authority in self._handlers:
                raise AddressError(
                    f"loopback authority {authority!r} is already bound"
                )
            self._handlers[authority] = handler
            return authority

    def unbind(self, authority: str) -> None:
        with self._lock:
            self._handlers.pop(authority, None)

    def lookup(self, authority: str) -> RequestHandler:
        with self._lock:
            try:
                return self._handlers[authority]
            except KeyError:
                raise ChannelClosedError(
                    f"no loopback server at {authority!r}"
                ) from None


_registry = _LoopbackRegistry()


class _LoopbackBinding(ServerBinding):
    def __init__(self, authority: str) -> None:
        self._authority = authority
        self._closed = False

    @property
    def authority(self) -> str:
        return self._authority

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            _registry.unbind(self._authority)


class LoopbackChannel(Channel):
    """Same-process channel with real serialized payloads.

    *formatter* defaults to :class:`BinaryFormatter`, like the
    socket channels.
    """

    scheme = "loopback"
    serves_inline = True

    def __init__(self, formatter=None) -> None:  # type: ignore[no-untyped-def]
        super().__init__(
            formatter if formatter is not None else BinaryFormatter()
        )

    def listen(self, authority: str, handler: RequestHandler) -> ServerBinding:
        bound = _registry.bind(authority, handler)
        return _LoopbackBinding(bound)

    def call(
        self,
        authority: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str] | None = None,
    ) -> bytes:
        handler = _registry.lookup(authority)
        try:
            # bytes(...) forces a copy so the handler cannot alias the
            # caller's buffer — the same isolation a socket provides.
            response = handler(path, bytes(body), dict(headers or {}))
        except ChannelClosedError:
            raise
        except Exception as exc:  # noqa: BLE001 - wire boundary, like TCP
            raise ChannelError(
                f"remote handler failed: {type(exc).__name__}: {exc}"
            ) from exc
        return bytes(reply_bytes(response))
