"""Channel registry and remoting-URI parsing.

The analog of ``ChannelServices.RegisterChannel`` /
``Activator.GetObject(typeof(T), "tcp://host:1050/DivideServer")`` from the
paper's Fig. 2: a URI's scheme selects a registered channel, its authority
is the endpoint to dial, and its path names the published object.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.channels.base import Channel
from repro.errors import AddressError, ChannelError


@dataclass(frozen=True)
class RemotingUri:
    """Parsed form of ``scheme://authority/path``."""

    scheme: str
    authority: str
    path: str

    def __str__(self) -> str:
        return f"{self.scheme}://{self.authority}/{self.path}"


def parse_uri(uri: str) -> RemotingUri:
    """Parse a remoting URI; raises AddressError on malformed input."""
    scheme, sep, rest = uri.partition("://")
    if not sep or not scheme:
        raise AddressError(f"remoting URI {uri!r} has no scheme://")
    authority, slash, path = rest.partition("/")
    if not authority:
        raise AddressError(f"remoting URI {uri!r} has no authority")
    if not slash or not path:
        raise AddressError(f"remoting URI {uri!r} has no object path")
    return RemotingUri(scheme=scheme, authority=authority, path=path)


class ChannelServices:
    """Per-process (or per-node) map from URI scheme to channel instance.

    Separate instances exist per simulated node so tests can build several
    independent "processes" in one interpreter; :func:`default_services`
    returns the real per-process registry used by the public API.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._channels: dict[str, Channel] = {}

    def register_channel(self, channel: Channel) -> Channel:
        """Register *channel* for its scheme; duplicate schemes are errors."""
        with self._lock:
            existing = self._channels.get(channel.scheme)
            if existing is not None and existing is not channel:
                raise ChannelError(
                    f"a channel for scheme {channel.scheme!r} is already "
                    f"registered"
                )
            self._channels[channel.scheme] = channel
        return channel

    def register_channel_if_absent(self, channel: Channel) -> Channel:
        """Register *channel* unless its scheme has one; returns the one in use."""
        with self._lock:
            return self._channels.setdefault(channel.scheme, channel)

    def unregister_channel(self, scheme: str) -> None:
        with self._lock:
            self._channels.pop(scheme, None)

    def channel_for(self, scheme: str) -> Channel:
        try:
            return self._channels[scheme]
        except KeyError:
            raise ChannelError(
                f"no channel registered for scheme {scheme!r}; call "
                f"ChannelServices.register_channel first"
            ) from None

    def channel_for_uri(self, uri: str | RemotingUri) -> tuple[Channel, RemotingUri]:
        parsed = parse_uri(uri) if isinstance(uri, str) else uri
        return self.channel_for(parsed.scheme), parsed

    def close_all(self) -> None:
        """Close every registered channel and clear the registry."""
        with self._lock:
            channels = list(self._channels.values())
            self._channels.clear()
        for channel in channels:
            channel.close()


_default = ChannelServices()


def default_services() -> ChannelServices:
    """The process-wide registry used when none is passed explicitly."""
    return _default
