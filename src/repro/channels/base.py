"""Channel interface: synchronous request/response over some wire.

A channel is deliberately simple — ``call(authority, path, body) -> bytes``
on the client side and a registered handler on the server side.  Request
correlation, async delegates, one-way optimization and object identity all
live a layer up in :mod:`repro.remoting`; this split mirrors .Net
remoting's channel-sink architecture and keeps each wire implementation
small enough to reason about.
"""

from __future__ import annotations

import abc
from typing import Callable, Mapping

#: Server-side request handler: (path, body, headers) -> response body.
RequestHandler = Callable[[str, bytes, Mapping[str, str]], bytes]


class ServerBinding(abc.ABC):
    """A live server endpoint created by :meth:`Channel.listen`."""

    @property
    @abc.abstractmethod
    def authority(self) -> str:
        """The address clients should dial (e.g. ``127.0.0.1:4711``)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Stop accepting requests and release resources (idempotent)."""

    def __enter__(self) -> "ServerBinding":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Channel(abc.ABC):
    """One wire protocol (framing + formatter) usable as client and server."""

    #: URI scheme this channel serves (``tcp``, ``http``, ``loopback``).
    scheme: str

    #: Serialized size of the most recent :meth:`round_trip` request body.
    #: A best-effort statistic (unsynchronised under concurrent callers) —
    #: the adaptive grain controller reads it to estimate bytes-per-call;
    #: it must never be used for correctness.
    last_request_bytes: int = 0

    def __init__(self, formatter) -> None:  # type: ignore[no-untyped-def]
        self.formatter = formatter

    @abc.abstractmethod
    def listen(self, authority: str, handler: RequestHandler) -> ServerBinding:
        """Start serving requests at *authority*.

        ``authority`` may request an ephemeral endpoint (port 0 for socket
        channels); the effective address is on the returned binding.
        """

    @abc.abstractmethod
    def call(
        self,
        authority: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str] | None = None,
    ) -> bytes:
        """Send one request and block for the response body."""

    def round_trip(
        self,
        authority: str,
        path: str,
        message: object,
        headers: Mapping[str, str] | None = None,
    ):
        """Serialize *message*, exchange it, deserialize the response.

        The default composes ``formatter.dumps`` → :meth:`call` →
        ``formatter.loads``, so wrapper channels (chaos, breaker) inherit
        correct behaviour through their ``call`` overrides automatically.
        The framed transports (tcp, shm, aio) override it to encode into
        the frame buffer and decode from a view of the reply frame, never
        materialising the intermediate ``bytes``; both routes end in the
        same exchange (:mod:`repro.channels.exchange`).
        """
        body = self.formatter.dumps(message)
        self.last_request_bytes = len(body)
        response = self.call(authority, path, body, headers=headers)
        return self.formatter.loads(response)

    def close(self) -> None:
        """Release client-side resources (connection pools).  Idempotent."""
