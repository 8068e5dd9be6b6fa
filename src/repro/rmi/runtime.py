"""RMI runtime: export table, JRMP-analog wire protocol, remote stubs.

The moving parts behind Fig. 1's server: a per-process
:class:`RmiRuntime` listens on a TCP endpoint and dispatches calls to
exported objects; :class:`UnicastRemoteObject` exports itself at
construction (as in Java); :class:`RemoteStub` is the base class of the
``rmic``-generated client stubs.

Wire realism: every call message carries *class annotations* (the type
names of its arguments), mirroring JRMP's per-class codebase annotations —
the structural overhead that keeps RMI's wire efficiency below MPI's in
Fig. 8a even though both ride TCP.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.channels.tcp import TcpChannel
from repro.errors import (
    AlreadyBoundError,
    ExportError,
    NotBoundError,
    RemoteException,
)

#: Checked exception types preserved across the wire: the server reports
#: the type name, the stub rethrows the matching class (Java serializes
#: the exception object itself; the analog maps by name, never executing
#: remote-supplied code).
_CHECKED_EXCEPTIONS: dict[str, type] = {
    "NotBoundError": NotBoundError,
    "AlreadyBoundError": AlreadyBoundError,
    "ExportError": ExportError,
    "RemoteException": RemoteException,
}
from repro.rmi.interfaces import (
    Remote,
    remote_method_names,
    verify_remote_interface,
)
from repro.serialization import serializable
from repro.serialization.registry import Surrogate, default_registry


@serializable(name="parc.rmi.ObjRef")
@dataclass(frozen=True)
class RmiObjRef:
    """Location of an exported remote object (endpoint + id + interface)."""

    endpoint: str
    object_id: str
    interface_name: str


@serializable(name="parc.rmi.Call")
@dataclass
class RmiCall:
    """One JRMP-analog call: operation string + argument graph + annotations."""

    object_id: str
    operation: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    annotations: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if isinstance(self.args, list):
            self.args = tuple(self.args)


@serializable(name="parc.rmi.Return")
@dataclass
class RmiReturn:
    """Result envelope: value or error description (never both)."""

    value: Any = None
    error_type: str = ""
    error_message: str = ""

    @property
    def is_error(self) -> bool:
        return bool(self.error_type)


# -- interface table ---------------------------------------------------------

_interface_lock = threading.Lock()
_interfaces: dict[str, type] = {}


def _interface_key(interface: type) -> str:
    return f"{interface.__module__}.{interface.__qualname__}"


def register_interface(interface: type) -> str:
    """Record *interface* so decoded stub references can find it."""
    key = _interface_key(interface)
    with _interface_lock:
        _interfaces[key] = interface
    return key


def interface_by_name(name: str) -> type | None:
    with _interface_lock:
        return _interfaces.get(name)


# -- client side --------------------------------------------------------------

_client_lock = threading.Lock()
_client_channel: TcpChannel | None = None


def _shared_client_channel() -> TcpChannel:
    """One connection-pooled channel for all stubs in this process."""
    global _client_channel
    with _client_lock:
        if _client_channel is None:
            _client_channel = TcpChannel()
        return _client_channel


class RemoteStub:
    """Base class of rmic-generated stubs.

    Subclasses add one forwarding method per declared remote method; all
    runtime state lives here.  Every failure — transport or application —
    surfaces as the checked :class:`RemoteException` (Fig. 1 step 4).
    """

    #: Set by the stub generator to the interface class.
    _rmi_interface: type | None = None

    def __init__(self, objref: RmiObjRef) -> None:
        self._rmi_objref = objref
        self._rmi_channel = _shared_client_channel()

    def _invoke(self, operation: str, args: tuple, kwargs: dict | None = None) -> Any:
        call = RmiCall(
            object_id=self._rmi_objref.object_id,
            operation=operation,
            args=args,
            kwargs=kwargs or {},
            annotations=[type(arg).__qualname__ for arg in args],
        )
        formatter = self._rmi_channel.formatter
        try:
            body = formatter.dumps(call)
            response = self._rmi_channel.call(
                self._rmi_objref.endpoint, self._rmi_objref.object_id, body
            )
            result = formatter.loads(response)
        except RemoteException:
            raise
        except Exception as exc:  # noqa: BLE001 - checked-exception boundary
            raise RemoteException(
                f"remote call {operation} to {self._rmi_objref.endpoint} "
                f"failed: {exc}",
                cause=exc,
            ) from exc
        if not isinstance(result, RmiReturn):
            raise RemoteException(
                f"protocol error: expected RmiReturn, got "
                f"{type(result).__qualname__}"
            )
        if result.is_error:
            exception_class = _CHECKED_EXCEPTIONS.get(
                result.error_type, RemoteException
            )
            if exception_class is RemoteException:
                raise RemoteException(
                    f"{result.error_type}: {result.error_message}"
                )
            raise exception_class(result.error_message)
        return result.value

    def __repr__(self) -> str:
        return (
            f"<RemoteStub {self._rmi_objref.interface_name} at "
            f"{self._rmi_objref.endpoint}/{self._rmi_objref.object_id}>"
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RemoteStub):
            return self._rmi_objref == other._rmi_objref
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rmi_objref)


# -- server side --------------------------------------------------------------

class RmiRuntime:
    """Export table + dispatcher for one process's remote objects."""

    def __init__(self, authority: str = "127.0.0.1:0") -> None:
        self._lock = threading.Lock()
        self._exports: dict[str, tuple[Any, type, frozenset[str]]] = {}
        self._counter = itertools.count(1)
        self._channel = TcpChannel()
        self._binding = self._channel.listen(authority, self._handle)
        self._closed = False

    @property
    def endpoint(self) -> str:
        return self._binding.authority

    def export(
        self,
        obj: Any,
        interface: type | None = None,
        object_id: str | None = None,
    ) -> RmiObjRef:
        """Make *obj* remotely reachable; returns its reference.

        *interface* defaults to the single Remote interface the object's
        class implements; ambiguity is an :class:`ExportError` (Java
        resolves it via the stub class name; we require explicitness).
        """
        if interface is None:
            interface = _find_remote_interface(type(obj))
        declared = frozenset(verify_remote_interface(interface))
        register_interface(interface)
        with self._lock:
            if self._closed:
                raise ExportError("runtime is closed")
            if object_id is None:
                object_id = f"obj-{next(self._counter)}"
            if object_id in self._exports:
                raise ExportError(f"object id {object_id!r} already exported")
            self._exports[object_id] = (obj, interface, declared)
        ref = RmiObjRef(
            endpoint=self.endpoint,
            object_id=object_id,
            interface_name=_interface_key(interface),
        )
        obj._rmi_objref = ref
        obj._rmi_runtime = self
        return ref

    def unexport(self, obj: Any) -> None:
        ref = getattr(obj, "_rmi_objref", None)
        if ref is None:
            return
        with self._lock:
            self._exports.pop(ref.object_id, None)
        obj._rmi_objref = None
        obj._rmi_runtime = None

    def exported_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._exports)

    def _handle(self, path: str, body: bytes, headers: Any) -> bytes:
        formatter = self._channel.formatter
        try:
            call = formatter.loads(body)
            if not isinstance(call, RmiCall):
                raise RemoteException(
                    f"protocol error: expected RmiCall, got "
                    f"{type(call).__qualname__}"
                )
            result = self._dispatch(call)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            result = RmiReturn(
                error_type=type(exc).__qualname__, error_message=str(exc)
            )
        return formatter.dumps(result)

    def _dispatch(self, call: RmiCall) -> RmiReturn:
        with self._lock:
            entry = self._exports.get(call.object_id)
        if entry is None:
            return RmiReturn(
                error_type="NoSuchObjectException",
                error_message=f"no exported object {call.object_id!r}",
            )
        obj, _interface, declared = entry
        method_name = call.operation.split("(", 1)[0]
        if method_name not in declared:
            return RmiReturn(
                error_type="UnmarshalException",
                error_message=(
                    f"operation {call.operation!r} is not declared on "
                    f"{entry[1].__qualname__}"
                ),
            )
        try:
            value = getattr(obj, method_name)(*call.args, **call.kwargs)
        except Exception as exc:  # noqa: BLE001 - user method boundary
            return RmiReturn(
                error_type=type(exc).__qualname__, error_message=str(exc)
            )
        return RmiReturn(value=value)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._binding.close()
        self._channel.close()

    def __enter__(self) -> "RmiRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _find_remote_interface(cls: type) -> type:
    candidates = [
        base
        for base in cls.__mro__
        if base not in (cls, Remote, object)
        and issubclass(base, Remote)
        and not issubclass(base, UnicastRemoteObject)
        and remote_method_names(base)
    ]
    # Drop bases that are refinements of other candidates (keep leaves).
    leaves = [
        base
        for base in candidates
        if not any(
            other is not base and issubclass(other, base)
            for other in candidates
        )
    ]
    if not leaves:
        raise ExportError(
            f"{cls.__qualname__} implements no Remote interface "
            f"(Fig. 1 step 1: the server class must implement an "
            f"interface extending Remote)"
        )
    if len(leaves) > 1:
        names = ", ".join(base.__qualname__ for base in leaves)
        raise ExportError(
            f"{cls.__qualname__} implements multiple Remote interfaces "
            f"({names}); pass interface= explicitly"
        )
    return leaves[0]


_default_runtime_lock = threading.Lock()
_default_runtime: RmiRuntime | None = None


def default_runtime() -> RmiRuntime:
    """Lazily started per-process runtime (ephemeral port), as in Java."""
    global _default_runtime
    with _default_runtime_lock:
        if _default_runtime is None or _default_runtime._closed:
            _default_runtime = RmiRuntime()
        return _default_runtime


def reset_default_runtime() -> None:
    """Close and forget the default runtime (test isolation)."""
    global _default_runtime
    with _default_runtime_lock:
        runtime, _default_runtime = _default_runtime, None
    if runtime is not None:
        runtime.close()


class UnicastRemoteObject(Remote):
    """Server base class: exports itself at construction (Fig. 1 step 2).

    Subclasses call ``super().__init__()`` and are immediately reachable;
    pass ``runtime=`` to export into a specific runtime, or rely on the
    process default (an ephemeral TCP port, like Java's anonymous export).
    """

    def __init__(
        self,
        runtime: RmiRuntime | None = None,
        interface: type | None = None,
    ) -> None:
        target = runtime if runtime is not None else default_runtime()
        target.export(self, interface=interface)


class _ExportedObjectSurrogate(Surrogate):
    """Exported remote objects (and stubs) cross the wire as references.

    The Java behaviour: passing an exported remote object in a call makes
    the receiver get its stub, not a copy.  Decoding builds a stub through
    the rmic cache; an unknown interface is a (checked) RemoteException.
    """

    wire_name = "parc.rmi.StubRef"
    claims = (RemoteStub, UnicastRemoteObject)

    def applies_to(self, obj: Any) -> bool:
        if isinstance(obj, RemoteStub):
            return True
        return (
            isinstance(obj, UnicastRemoteObject)
            and getattr(obj, "_rmi_objref", None) is not None
        )

    def encode(self, obj: Any) -> dict[str, Any]:
        ref: RmiObjRef = obj._rmi_objref
        return {
            "endpoint": ref.endpoint,
            "object_id": ref.object_id,
            "interface_name": ref.interface_name,
        }

    def decode(self, state: dict[str, Any]) -> Any:
        from repro.rmi.rmic import rmic  # local import: rmic imports us

        ref = RmiObjRef(
            endpoint=state["endpoint"],
            object_id=state["object_id"],
            interface_name=state["interface_name"],
        )
        interface = interface_by_name(ref.interface_name)
        if interface is None:
            raise RemoteException(
                f"cannot build stub: interface {ref.interface_name!r} is "
                f"not registered in this process (import it and run rmic)"
            )
        return rmic(interface)(ref)


default_registry.register_surrogate(_ExportedObjectSurrogate())
