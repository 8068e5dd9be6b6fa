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
import threading
from typing import Callable, Mapping

#: Server-side request handler: (path, body, headers) -> response body,
#: or a list of byte buffers joining to it whose views the channel
#: releases once the reply is sent.
RequestHandler = Callable[[str, bytes, Mapping[str, str]], "bytes | list"]


def release_views(parts: list) -> None:
    """Release every ``memoryview`` among a reply's *parts*."""
    for part in parts:
        if type(part) is memoryview:
            part.release()


def reply_bytes(response):  # type: ignore[no-untyped-def]
    """A handler's *response* as one buffer: a list is joined, released."""
    if type(response) is not list:
        return response
    try:
        return b"".join(response)
    finally:
        release_views(response)


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


class _Sent(threading.local):
    nbytes = 0  # before a thread's first request


class Channel(abc.ABC):
    """One wire protocol (framing + formatter) usable as client and server."""

    #: URI scheme this channel serves (``tcp``, ``http``, ``loopback``).
    scheme: str

    #: Whether :meth:`round_trip` runs the server's handler on the
    #: calling thread, so the call is work on that thread, not a wait.
    serves_inline = False

    def __init__(self, formatter) -> None:  # type: ignore[no-untyped-def]
        self.formatter = formatter
        self._sent = _Sent()

    @property
    def last_request_bytes(self) -> int:
        """Serialized size of the last :meth:`round_trip` request the
        calling thread sent through this channel.

        Per thread, so concurrent callers sharing the channel each read
        their own request's size.  The adaptive grain controller reads
        it to estimate bytes-per-call; it must never be used for
        correctness.
        """
        return self._sent.nbytes

    @last_request_bytes.setter
    def last_request_bytes(self, nbytes: int) -> None:
        self._sent.nbytes = nbytes

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
        ``formatter.loads``, so the chaos wrapper channel inherits
        correct behaviour through its ``call`` override automatically.
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
