"""RemotingHost: one application domain's object table and dispatcher.

A host is what the paper's Fig. 2 server ``Main`` sets up implicitly:
channels registered with ``ChannelServices``, well-known service types
registered with ``RemotingConfiguration``, and an invisible dispatcher that
receives call messages, runs the target method, and ships the return value
back.  ParC# then builds its per-node runtime (object managers, factories)
directly on these pieces (§3.2).

Publication modes (§2):

* ``publish(obj, path)`` — marshal an explicitly created instance (the
  Java-RMI-style flow of Fig. 1);
* ``register_well_known(cls, path, WellKnownObjectMode.SINGLETON)`` — one
  lazily created instance serves all calls;
* ``register_well_known(cls, path, WellKnownObjectMode.SINGLE_CALL)`` — a
  fresh instance per call ("object state is not maintained between remote
  calls").
"""

from __future__ import annotations

import contextvars
import enum
import functools
import itertools
import logging
import threading
import traceback
import uuid
from dataclasses import dataclass
from typing import Any, Mapping

from repro.channels.base import Channel, ServerBinding
from repro.channels.services import ChannelServices, default_services, parse_uri
from repro.errors import (
    ActivationError,
    RemotingError,
    UnknownObjectError,
)
from repro.executor import executor, timer
from repro.perfmodel.clock import Clock, WallClock
from repro.remoting.lifetime import DEFAULT_TTL_SECONDS, LeaseManager
from repro.remoting.messages import CallMessage, RemoteErrorInfo, ReturnMessage
from repro.remoting.objref import (
    MarshalByRefObject,
    MbrSurrogate,
    ObjRef,
    current_host,
)
from repro.remoting.proxy import RemoteProxy, make_typed_proxy_class
from repro.serialization import default_registry
from repro.serialization.codec import gather_parts
from repro.telemetry.context import TRACE_HEADER, current_context, from_header
from repro.telemetry.tracer import current_tracer_var

# The surrogate that turns MarshalByRefObjects into ObjRefs on the wire is
# process-global; installing it here (imported by every remoting user)
# keeps plain-serialization users unaffected.
default_registry.register_surrogate(MbrSurrogate())


class WellKnownObjectMode(enum.Enum):
    """Server-activated publication modes (paper §2)."""

    SINGLETON = "singleton"
    SINGLE_CALL = "singlecall"


@dataclass
class _Entry:
    """One row of the object table."""

    instance: Any = None  # published or lazily created singleton
    cls: type | None = None  # for well-known entries
    mode: WellKnownObjectMode | None = None
    lock: threading.Lock | None = None


#: Well-known path of the client-activation service on every host.
ACTIVATION_PATH = "__activation__"

logger = logging.getLogger("repro.remoting")


class ActivationService(MarshalByRefObject):
    """Server half of client-activated objects (CAO).

    §2: "several ways to publish remote objects" — besides well-known
    singleton/singlecall services, .Net supports *client-activated*
    objects: the client requests a new, private, stateful instance with
    constructor arguments; its lifetime is lease-bound.
    """

    def __init__(self, host: "RemotingHost") -> None:
        self._host = host

    def activate(self, type_name: str, args: tuple, kwargs: dict):  # type: ignore[no-untyped-def]
        cls = self._host._activated_types.get(type_name)
        if cls is None:
            raise ActivationError(
                f"type {type_name!r} is not registered for client "
                f"activation on host {self._host.host_id}"
            )
        try:
            instance = cls(*args, **(kwargs or {}))
        except Exception as exc:  # noqa: BLE001 - activation boundary
            raise ActivationError(
                f"client activation of {type_name} failed: {exc}"
            ) from exc
        # Returned by reference: the caller gets a proxy, the instance
        # lives here under a finite lease renewed by use.
        return instance


class RemotingHost:
    """Object table + dispatcher + channel bindings for one node/process.

    *services* defaults to the process-wide channel registry; simulated
    multi-node setups pass their own so each "node" has an isolated
    channel table.
    """

    def __init__(
        self,
        name: str = "",
        services: ChannelServices | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.host_id = name or f"host-{uuid.uuid4().hex[:12]}"
        self.services = services if services is not None else default_services()
        self.clock = clock if clock is not None else WallClock()
        self.leases = LeaseManager(clock=self.clock)
        self._lock = threading.RLock()
        self._objects: dict[str, _Entry] = {}
        self._bindings: dict[str, ServerBinding] = {}
        self._channels: dict[str, Channel] = {}
        self._auto_counter = itertools.count(1)
        self._closed = False
        self._sweep = None  # the lease sweep armed on the process timer
        self._sweep_failed = False
        self._activated_types: dict[str, type] = {}
        self._one_way_failures: list[tuple[str, str, RemoteErrorInfo]] = []
        self.one_way_failure_count = 0
        # Set by the owning cluster node: a NodeTelemetry whose tracer
        # records dispatch spans in this node's lane of the merged trace.
        self.telemetry = None

    # -- serving ---------------------------------------------------------

    def listen(self, channel: Channel, authority: str) -> ServerBinding:
        """Serve this host's objects over *channel* at *authority*.

        The channel is also registered with the host's ChannelServices (if
        its scheme is free) so locally created proxies can dial peers over
        the same scheme.  One binding per scheme per host.
        """
        with self._lock:
            if self._closed:
                raise RemotingError("host is closed")
            if channel.scheme in self._bindings:
                raise RemotingError(
                    f"host already listens on scheme {channel.scheme!r}"
                )
            formatter = channel.formatter

            def handler(path: str, body: bytes, headers: Mapping[str, str]) -> bytes | list:
                return self._handle_request(formatter, path, body, headers)

            binding = channel.listen(authority, handler)
            self._bindings[channel.scheme] = binding
            self._channels[channel.scheme] = channel
            # A channel already registered for this scheme keeps serving
            # client calls; serving works through our binding either way.
            self.services.register_channel_if_absent(channel)
            return binding

    @property
    def uris(self) -> tuple[str, ...]:
        """Base URIs (one per bound scheme), e.g. ``tcp://127.0.0.1:4711``."""
        with self._lock:
            return tuple(
                f"{scheme}://{binding.authority}"
                for scheme, binding in sorted(self._bindings.items())
            )

    # -- publication -------------------------------------------------------

    def publish(
        self,
        obj: MarshalByRefObject,
        path: str | None = None,
        ttl: float = float("inf"),
    ) -> ObjRef:
        """Marshal an explicit instance at *path* (auto-generated if None).

        Explicit publications default to an infinite lease: the caller
        owns the name.  Implicit publications (an object passed through a
        call) go through :meth:`objref_for`, which uses the finite default
        lease so abandoned objects are eventually collected.
        """
        if not isinstance(obj, MarshalByRefObject):
            raise RemotingError(
                f"{type(obj).__qualname__} does not derive from "
                f"MarshalByRefObject; by-value types cannot be published"
            )
        with self._lock:
            if obj._parc_path is not None and obj._parc_home is self:
                return self._objref_for_path(obj._parc_path, type(obj))
            if path is None:
                path = (
                    f"auto/{type(obj).__name__.lower()}-"
                    f"{next(self._auto_counter)}"
                )
            if path in self._objects:
                raise RemotingError(f"path {path!r} is already published")
            self._objects[path] = _Entry(instance=obj)
            obj._parc_home = self
            obj._parc_path = path
            self.leases.register(path, ttl)
            return self._objref_for_path(path, type(obj))

    def register_well_known(
        self,
        cls: type,
        path: str,
        mode: WellKnownObjectMode = WellKnownObjectMode.SINGLETON,
    ) -> None:
        """Publish *cls* as a server-activated well-known service.

        The paper's Fig. 2/6 pattern: the server registers an object
        *factory*, not an instance; instantiation happens at first request
        (singleton) or per request (singlecall).
        """
        if not (isinstance(cls, type) and issubclass(cls, MarshalByRefObject)):
            raise RemotingError(
                f"well-known type must derive from MarshalByRefObject, "
                f"got {cls!r}"
            )
        with self._lock:
            if path in self._objects:
                raise RemotingError(f"path {path!r} is already published")
            self._objects[path] = _Entry(
                cls=cls, mode=mode, lock=threading.Lock()
            )
            self.leases.register(path, float("inf"))

    def register_activated(self, cls: type, type_name: str | None = None) -> str:
        """Allow *cls* to be activated by clients (CAO mode).

        The activation service itself is published lazily at
        :data:`ACTIVATION_PATH`.  Returns the registered type name clients
        pass to :meth:`Activator.create_instance`.
        """
        if not (isinstance(cls, type) and issubclass(cls, MarshalByRefObject)):
            raise RemotingError(
                f"client-activated type must derive from "
                f"MarshalByRefObject, got {cls!r}"
            )
        name = type_name or f"{cls.__module__}.{cls.__qualname__}"
        with self._lock:
            existing = self._activated_types.get(name)
            if existing is not None and existing is not cls:
                raise RemotingError(
                    f"activated type name {name!r} already registered"
                )
            self._activated_types[name] = cls
            if ACTIVATION_PATH not in self._objects:
                self._objects[ACTIVATION_PATH] = _Entry(
                    instance=ActivationService(self)
                )
                self.leases.register(ACTIVATION_PATH, float("inf"))
        return name

    def create_instance(self, base_uri: str, type_name: str, *args: Any, **kwargs: Any):
        """Client side of CAO: a fresh remote instance with ctor args.

        *base_uri* is the target host's base (e.g. ``tcp://host:port``);
        returns a transparent proxy to the new instance.
        """
        activation = self.get_object(f"{base_uri}/{ACTIVATION_PATH}")
        return activation.activate(type_name, tuple(args), dict(kwargs))

    def unpublish(self, path: str) -> None:
        """Remove a publication; in-flight calls to it fail from then on."""
        with self._lock:
            entry = self._objects.pop(path, None)
        self.leases.drop(path)
        if entry is not None and isinstance(entry.instance, MarshalByRefObject):
            entry.instance._parc_home = None
            entry.instance._parc_path = None

    def collect_expired(self) -> list[str]:
        """Unpublish every object whose lease has lapsed; returns paths."""
        expired = self.leases.expired_paths()
        for path in expired:
            self.unpublish(path)
        return expired

    def start_lease_sweeper(self, interval_s: float = 10.0) -> None:
        """Collect expired leases periodically in the background.

        The .Net lease manager runs a poll thread with a default 10 s
        period; this is its analog, a sweep every *interval_s* on the
        process timer.  Idempotent; :meth:`close` cancels the sweep.
        """
        if interval_s <= 0:
            raise RemotingError("sweeper interval must be positive")
        with self._lock:
            if self._closed:
                raise RemotingError("host is closed")
            if self._sweep is None:
                self._arm_sweep_locked(interval_s)

    def _arm_sweep_locked(self, interval_s: float) -> None:
        self._sweep = timer().call_later(
            interval_s, functools.partial(self._sweep_due, interval_s)
        )

    def _sweep_due(self, interval_s: float) -> None:
        # On the timer thread: collect_expired only takes short locks.
        try:
            self.collect_expired()
        except Exception:  # noqa: BLE001 - the sweep must survive
            telemetry = self.telemetry
            if telemetry is not None:
                telemetry.metrics.counter(
                    "parc.errors.lease_sweep", "lease sweeps that raised"
                ).inc()
            if not self._sweep_failed:
                self._sweep_failed = True
                logger.exception("lease sweep of host %s failed", self.host_id)
        with self._lock:
            if not self._closed:
                self._arm_sweep_locked(interval_s)

    def published_paths(self) -> list[str]:
        with self._lock:
            return sorted(self._objects)

    # -- references and proxies ---------------------------------------------

    def objref_for(self, obj: MarshalByRefObject) -> ObjRef:
        """Reference for *obj*, publishing it implicitly if needed."""
        with self._lock:
            if obj._parc_path is None or obj._parc_home is not self:
                self.publish(obj, ttl=DEFAULT_TTL_SECONDS)
            return self._objref_for_path(obj._parc_path, type(obj))

    def _objref_for_path(self, path: str, cls: type) -> ObjRef:
        uris = tuple(f"{base}/{path}" for base in self.uris)
        if not uris:
            # Not listening yet: loopback-only reference through the
            # host-id shortcut (resolvable by this host alone).
            uris = (f"loopback://unbound-{self.host_id}/{path}",)
        return ObjRef(
            uris=uris,
            type_hint=f"{cls.__module__}.{cls.__qualname__}",
            host_id=self.host_id,
        )

    def resolve_local(self, ref: ObjRef) -> Any:
        """Return the live local instance behind *ref* if this host owns it.

        The reference shortcut: an ObjRef that travels back to its home
        host decodes to the original object, not a proxy (same as .Net).
        Only instance-backed entries short-circuit; well-known singletons
        do so once created.
        """
        if ref.host_id != self.host_id:
            return None
        path = parse_uri(ref.uris[0]).path
        with self._lock:
            entry = self._objects.get(path)
            if entry is not None and entry.instance is not None:
                return entry.instance
        return None

    def make_proxy(self, ref: ObjRef, interface: type | None = None) -> RemoteProxy:
        """Build a transparent proxy bound to this host's channel table."""
        if interface is not None:
            proxy_class = make_typed_proxy_class(interface)
            return proxy_class(ref, services=self.services, host=self)
        return RemoteProxy(ref, services=self.services, host=self)

    def get_object(self, uri: str, interface: type | None = None) -> RemoteProxy:
        """Proxy for an arbitrary remoting URI (Activator.GetObject)."""
        parse_uri(uri)  # validate early
        ref = ObjRef(uris=(uri,))
        return self.make_proxy(ref, interface)

    # -- dispatch ------------------------------------------------------------

    def _handle_request(
        self,
        formatter,  # type: ignore[no-untyped-def]
        path: str,
        body: bytes,
        headers: Mapping[str, str],
    ) -> bytes | list:
        """Serve one request: the ``ReturnMessage`` as encoded bytes, or
        as parts (``gather_parts``) when it holds a large payload."""
        token = current_host.set(self)
        # Re-activate the caller's trace context so spans recorded while
        # serving this request — and any nested remote calls they make —
        # chain to the client span that sent the header.
        incoming = from_header(headers.get(TRACE_HEADER)) if headers else None
        trace_token = (
            current_context.set(incoming) if incoming is not None else None
        )
        telemetry = self.telemetry
        tracer_token = (
            current_tracer_var.set(telemetry.tracer)
            if telemetry is not None and telemetry.enabled
            else None
        )
        try:
            try:
                message = formatter.loads(body)
                if not isinstance(message, CallMessage):
                    raise RemotingError(
                        f"expected CallMessage, got {type(message).__qualname__}"
                    )
                if message.one_way:
                    # copy_context() carries the trace context (and node
                    # tracer) onto the executor thread that runs the call.
                    dispatch_ctx = contextvars.copy_context()
                    executor().submit(
                        functools.partial(
                            dispatch_ctx.run, self._run_call_silently, message
                        ),
                        attach=True,
                    )
                    result = ReturnMessage(value=None)
                else:
                    result = self._run_call(message)
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                result = ReturnMessage(
                    error=RemoteErrorInfo.from_exception(
                        exc, traceback.format_exc()
                    )
                )
            out = bytearray()
            spills = formatter.gather_into(out, result)
            return gather_parts(out, spills) if spills else out
        finally:
            if tracer_token is not None:
                current_tracer_var.reset(tracer_token)
            if trace_token is not None:
                current_context.reset(trace_token)
            current_host.reset(token)

    def _run_call(self, message: CallMessage) -> ReturnMessage:
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            with telemetry.tracer.span(
                "dispatch",
                f"serve.{message.method}",
                uri=message.uri,
                one_way=message.one_way,
            ):
                return self._run_call_inner(message)
        return self._run_call_inner(message)

    def _run_call_inner(self, message: CallMessage) -> ReturnMessage:
        target = self._activate(message.uri)
        method = self._resolve_method(target, message.method)
        try:
            value = method(*message.args, **message.kwargs)
        except Exception as exc:  # noqa: BLE001 - user method boundary
            return ReturnMessage(
                error=RemoteErrorInfo.from_exception(exc, traceback.format_exc())
            )
        self.leases.renew(message.uri)
        return ReturnMessage(value=value)

    def _run_call_silently(self, message: CallMessage) -> None:
        """One-way execution path: errors are recorded, never propagated."""
        token = current_host.set(self)
        try:
            result = self._run_call(message)
            if result.is_error:
                self._note_one_way_failure(message, result.error)
        except Exception as exc:  # noqa: BLE001 - worker thread boundary
            self._note_one_way_failure(
                message, RemoteErrorInfo.from_exception(exc)
            )
        finally:
            current_host.reset(token)

    def _note_one_way_failure(
        self, message: CallMessage, error: RemoteErrorInfo
    ) -> None:
        # One-way failures have no reply channel.  Keep the most recent
        # few for post-mortem inspection by tests and operators, and count
        # them all.
        with self._lock:
            self._one_way_failures.append((message.uri, message.method, error))
            del self._one_way_failures[:-32]
            self.one_way_failure_count += 1

    @property
    def one_way_failures(self) -> list[tuple[str, str, RemoteErrorInfo]]:
        with self._lock:
            return list(self._one_way_failures)

    def _activate(self, path: str) -> Any:
        with self._lock:
            entry = self._objects.get(path)
        if entry is None:
            raise UnknownObjectError(
                f"no object published at {path!r} on host {self.host_id}"
            )
        if entry.instance is not None and entry.mode is None:
            return entry.instance
        if entry.mode is WellKnownObjectMode.SINGLE_CALL:
            return self._construct(entry.cls)
        # Singleton: lazily construct exactly once.
        with entry.lock:
            if entry.instance is None:
                entry.instance = self._construct(entry.cls)
                entry.instance._parc_home = self
                entry.instance._parc_path = path
            return entry.instance

    @staticmethod
    def _construct(cls: type) -> Any:
        try:
            return cls()
        except Exception as exc:  # noqa: BLE001 - activation boundary
            raise ActivationError(
                f"well-known type {cls.__qualname__} failed to construct: "
                f"{exc}"
            ) from exc

    @staticmethod
    def _resolve_method(target: Any, name: str) -> Any:
        if name.startswith("_"):
            raise RemotingError(f"method {name!r} is not remotely callable")
        method = getattr(target, name, None)
        if method is None or not callable(method):
            raise RemotingError(
                f"{type(target).__qualname__} has no remote method {name!r}"
            )
        return method

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Stop serving; idempotent.  Channels shared via services stay open."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            bindings = list(self._bindings.values())
            self._bindings.clear()
            sweep = self._sweep
        if sweep is not None:
            # Waits out a sweep in flight: none runs once close returns.
            sweep.cancel()
        for binding in bindings:
            binding.close()

    def __enter__(self) -> "RemotingHost":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- process-default conveniences (the static .Net API surface) -------------

_default_host_lock = threading.Lock()
_default_host: RemotingHost | None = None


def default_host() -> RemotingHost:
    """The process-wide host used by the static facades below."""
    global _default_host
    with _default_host_lock:
        if _default_host is None or _default_host._closed:
            _default_host = RemotingHost(name="default")
        return _default_host


def reset_default_host() -> None:
    """Close and forget the process-default host (test isolation)."""
    global _default_host
    with _default_host_lock:
        host, _default_host = _default_host, None
    if host is not None:
        host.close()


class RemotingConfiguration:
    """Static facade mirroring ``RemotingConfiguration`` in Fig. 2."""

    @staticmethod
    def register_well_known_service_type(
        cls: type,
        path: str,
        mode: WellKnownObjectMode = WellKnownObjectMode.SINGLETON,
        host: RemotingHost | None = None,
    ) -> None:
        (host or default_host()).register_well_known(cls, path, mode)


class Activator:
    """Static facade mirroring ``Activator`` in Fig. 2."""

    @staticmethod
    def get_object(
        uri: str,
        interface: type | None = None,
        host: RemotingHost | None = None,
    ) -> RemoteProxy:
        return (host or default_host()).get_object(uri, interface)

    @staticmethod
    def create_instance(
        base_uri: str,
        type_name: str,
        *args: Any,
        host: RemotingHost | None = None,
        **kwargs: Any,
    ):
        """Client-activated instance (``Activator.CreateInstance``)."""
        return (host or default_host()).create_instance(
            base_uri, type_name, *args, **kwargs
        )
