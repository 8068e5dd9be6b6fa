"""Transparent proxies: the client half of remote method invocation.

A :class:`RemoteProxy` stands in for a remote object.  Attribute access
returns a :class:`RemoteMethod`, and calling it runs the full protocol:
encode a :class:`~repro.remoting.messages.CallMessage` with the channel's
formatter, one channel round trip, decode the
:class:`~repro.remoting.messages.ReturnMessage`, return the value or raise.

This is what the paper means by "it is not required to generate proxy and
ties, since they are automatically generated" (§2): no per-class tooling —
unlike the Java ``rmic`` step reproduced in :mod:`repro.rmi.rmic`.

Two refinements the SCOOPP layer uses:

* ``method.one_way(*args)`` sends a fire-and-forget call (server dispatches
  on a worker and acknowledges immediately) — the transport of SCOOPP's
  asynchronous parallel-object invocations;
* :func:`make_typed_proxy_class` generates a proxy *subclass* with the
  real method names/signatures of an interface, so typed code reads like
  the C# ``(IDServer) Activator.GetObject(...)`` of Fig. 2.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

from repro.channels.services import ChannelServices, default_services, parse_uri
from repro.errors import (
    ChannelError,
    OverloadError,
    RemoteInvocationError,
    RemotingError,
)
from repro.executor import blocking
from repro.remoting.messages import CallMessage, ReturnMessage
from repro.remoting.objref import ObjRef, current_host
from repro.telemetry.context import TRACE_HEADER, current_context, to_header
from repro.telemetry.tracer import active_tracer

class RemoteProxy:
    """Dynamic transparent proxy bound to an :class:`ObjRef`.

    All internal state is ``_parc_``-prefixed so arbitrary remote method
    names cannot collide with it.
    """

    def __init__(
        self,
        objref: ObjRef,
        services: ChannelServices | None = None,
        host: Any = None,
    ) -> None:
        self._parc_objref = objref
        self._parc_services = services if services is not None else default_services()
        self._parc_host = host
        self._parc_lock = threading.Lock()
        self._parc_route = None  # cached (channel, authority, path)

    @property
    def _parc_last_wire_bytes(self) -> int:
        """Serialized size of the last request this thread sent through
        this proxy's channel (feeds the adaptive grain controller)."""
        route = self._parc_route
        return route[0].last_request_bytes if route is not None else 0

    # -- plumbing ------------------------------------------------------------

    def _parc_resolve_route(self):  # type: ignore[no-untyped-def]
        """Pick the first advertised URI whose scheme we have a channel for."""
        with self._parc_lock:
            if self._parc_route is not None:
                return self._parc_route
            last_error: Exception | None = None
            for uri in self._parc_objref.uris:
                parsed = parse_uri(uri)
                try:
                    channel = self._parc_services.channel_for(parsed.scheme)
                except ChannelError as exc:
                    last_error = exc
                    continue
                self._parc_route = (channel, parsed.authority, parsed.path)
                return self._parc_route
            raise RemotingError(
                f"no usable channel for any of {self._parc_objref.uris}"
            ) from last_error

    def _parc_invoke(
        self,
        method: str,
        args: tuple,
        kwargs: Mapping[str, Any],
        one_way: bool = False,
    ) -> Any:
        # The route is written once, so a cached one is read without the lock.
        channel, authority, path = (
            self._parc_route or self._parc_resolve_route()
        )
        call = CallMessage(
            uri=path,
            method=method,
            args=tuple(args),
            kwargs=dict(kwargs),
            one_way=one_way,
        )
        # Client span + context propagation.  With no tracer installed and
        # no active context this costs two lookups — the tracing-off path
        # must stay inside the pingpong overhead guardrail.
        tracer = active_tracer()
        token = current_host.set(self._parc_host)
        try:
            if tracer is None:
                result = _round_trip(channel, authority, path, call)
            else:
                with tracer.span(
                    "rpc", f"call.{method}", uri=path, one_way=one_way
                ):
                    result = _round_trip(channel, authority, path, call)
        finally:
            current_host.reset(token)
        if not isinstance(result, ReturnMessage):
            raise RemotingError(
                f"server returned {type(result).__qualname__}, expected "
                f"ReturnMessage"
            )
        if result.is_error:
            error = result.error
            if error.type_name == "OverloadError":
                # Server-side shedding (a full mailbox) surfaces as the
                # same typed error a local full mailbox raises: never a
                # reason to probe or respawn the node, and
                # distinguishable from application failures — the call
                # never ran.
                raise OverloadError(
                    f"remote call {method} shed by {authority}: "
                    f"{error.message}"
                )
            raise RemoteInvocationError(
                f"remote call {method} failed with {error.type_name}: "
                f"{error.message}",
                remote_traceback=error.traceback_text,
            )
        return result.value

    # -- user surface ----------------------------------------------------

    def __getattr__(self, name: str) -> "RemoteMethod":
        if name.startswith("_"):
            raise AttributeError(name)
        # Kept on the instance, so a name is looked up here only once.
        method = self.__dict__[name] = RemoteMethod(self, name)
        return method

    def __repr__(self) -> str:
        hint = self._parc_objref.type_hint or "object"
        return f"<RemoteProxy {hint} at {self._parc_objref.uris[0]}>"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RemoteProxy):
            return self._parc_objref.uris == other._parc_objref.uris
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parc_objref.uris)


def _round_trip(channel: Any, authority: str, path: str, call: CallMessage) -> Any:
    """One exchange of *call*; the trace context is its only header."""
    ctx = current_context.get()
    headers = {TRACE_HEADER: to_header(ctx)} if ctx is not None else None
    return channel.round_trip(authority, path, call, headers=headers)


def _invoke_waiting(
    proxy: RemoteProxy, method: str, args: tuple, kwargs: Mapping[str, Any]
) -> Any:
    """A synchronous call whose reply is waited for in managed blocking,
    so on an executor thread a delegate's remote call keeps its overlap
    with other runs.  A route served inline (loopback) runs the handler,
    user code included, on this thread: that is work, not a wait."""
    route = proxy._parc_route or proxy._parc_resolve_route()
    if route[0].serves_inline:
        return proxy._parc_invoke(method, args, kwargs)
    with blocking():
        return proxy._parc_invoke(method, args, kwargs)


class RemoteMethod:
    """One remotely invocable method, bound to its proxy.

    Calling it is a synchronous remote invocation; ``one_way`` is the
    fire-and-forget variant.  Instances are also plain callables, so they
    slot directly into :class:`~repro.remoting.delegates.Delegate` for
    asynchronous invocation — the paper's Fig. 4 pattern
    (``RemoteDel.BeginInvoke(num, ...)``).
    """

    __slots__ = ("_proxy", "_name")

    def __init__(self, proxy: RemoteProxy, name: str) -> None:
        self._proxy = proxy
        self._name = name

    @property
    def __name__(self) -> str:
        return self._name

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return _invoke_waiting(self._proxy, self._name, args, kwargs)

    def one_way(self, *args: Any, **kwargs: Any) -> None:
        """Invoke without waiting for the method to run (ack only)."""
        self._proxy._parc_invoke(self._name, args, kwargs, one_way=True)

    def __repr__(self) -> str:
        return f"<RemoteMethod {self._name} of {self._proxy!r}>"


def is_proxy(obj: Any) -> bool:
    """True if *obj* is a transparent remote proxy."""
    return isinstance(obj, RemoteProxy)


def proxy_uri(obj: Any) -> str:
    """Primary remoting URI behind a proxy (diagnostics, tests)."""
    if not isinstance(obj, RemoteProxy):
        raise RemotingError(f"{type(obj).__qualname__} is not a proxy")
    return obj._parc_objref.uris[0]


_typed_proxy_cache: dict[type, type] = {}
_typed_proxy_lock = threading.Lock()


def make_typed_proxy_class(interface: type) -> type:
    """Generate a RemoteProxy subclass mirroring *interface*'s methods.

    Every public callable attribute of *interface* becomes a forwarding
    method with the original docstring, giving typed proxies the look and
    feel of the C# cast in Fig. 2 (``(IDServer) Activator.GetObject(...)``)
    while staying ordinary Python.  Classes are cached per interface.
    """
    with _typed_proxy_lock:
        cached = _typed_proxy_cache.get(interface)
        if cached is not None:
            return cached

        namespace: dict[str, Any] = {
            "__doc__": f"Typed remote proxy for {interface.__qualname__}.",
            "_parc_interface": interface,
        }
        for name in dir(interface):
            if name.startswith("_"):
                continue
            member = getattr(interface, name)
            if not callable(member):
                continue
            namespace[name] = _make_forwarder(name, member)
        proxy_class = type(
            f"{interface.__name__}Proxy", (RemoteProxy,), namespace
        )
        _typed_proxy_cache[interface] = proxy_class
        return proxy_class


def _make_forwarder(name: str, template: Any) -> Any:
    def forwarder(self: RemoteProxy, *args: Any, **kwargs: Any) -> Any:
        return _invoke_waiting(self, name, args, kwargs)

    forwarder.__name__ = name
    forwarder.__qualname__ = name
    forwarder.__doc__ = getattr(template, "__doc__", None)
    return forwarder
