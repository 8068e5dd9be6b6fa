"""Transport channels: how serialized messages move between nodes.

This is the analog of .Net remoting's channel layer, the part of the stack
the paper benchmarks directly (Fig. 8).  A channel couples a wire framing
with a formatter:

* :class:`TcpChannel` — length-prefixed frames over real TCP sockets,
  binary formatter.  The paper's measured "Mono (Tcp)" configuration.
* :class:`HttpChannel` — real HTTP/1.1 requests/responses over TCP, SOAP
  formatter.  The paper's slow "Mono (Http)" configuration (Fig. 8b).
* :class:`LoopbackChannel` — in-process delivery that still runs the full
  serialize/deserialize path, for single-process clusters and tests.

:class:`ChannelServices` is the scheme registry (``tcp://``, ``http://``,
``loopback://``) mirroring ``ChannelServices.RegisterChannel`` in the
paper's Fig. 2.

:func:`create` builds a channel from a kind string (``create("tcp")``,
or ``create("chaos+tcp", ...)`` inside a fault injector); see
:mod:`repro.channels.factory`.
"""

from repro.channels.base import Channel, ServerBinding
from repro.channels.factory import (
    available_kinds,
    create,
    register_scheme,
)
from repro.channels.loopback import LoopbackChannel
from repro.channels.tcp import TcpChannel
from repro.channels.http import HttpChannel
from repro.channels.services import ChannelServices, RemotingUri, parse_uri

__all__ = [
    "Channel",
    "ChannelServices",
    "HttpChannel",
    "LoopbackChannel",
    "RemotingUri",
    "ServerBinding",
    "available_kinds",
    "create",
    "parse_uri",
    "register_scheme",
]
