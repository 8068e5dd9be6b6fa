"""Marshal-by-reference objects and their wire form (ObjRef).

.Net remoting draws one line through the object world: types deriving from
``MarshalByRefObject`` cross the wire *by reference* (the receiver gets a
transparent proxy), everything else crosses *by value* (the receiver gets a
copy).  The paper's Fig. 2 server derives from ``MarshalByRefObject``; the
SCOOPP implementation objects of Fig. 6 do too, while passive objects and
aggregated parameter structs are ``[Serializable]`` copies.

The mechanics here: a :class:`MbrSurrogate` registered with the
serialization registry intercepts any :class:`MarshalByRefObject` (or
existing proxy) during encoding, asks the *current host* (a context
variable set by the dispatcher / host APIs) to publish the object, and
writes an :class:`ObjRef`.  Decoding an ObjRef materializes a proxy bound
to the decoding side's channel services — unless the reference points back
at an object the decoding host itself owns, in which case the local
instance is returned (reference shortcut, same as .Net).
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass
from typing import Any

from repro.errors import RemotingError
from repro.serialization.registry import Surrogate


class MarshalByRefObject:
    """Base class of remotely invocable objects.

    Subclasses need no other ceremony: publishing happens either explicitly
    (``host.publish(obj, uri)`` / ``RemotingConfiguration``) or implicitly
    when an instance is passed through a remote call while a host is
    current.  The instance itself never leaves its home host.
    """

    #: Set when the object is published; the home host's identity.
    _parc_home: "Any | None" = None
    #: The object's path within its home host, once published.
    _parc_path: str | None = None

    def is_published(self) -> bool:
        return self._parc_path is not None


@dataclass(frozen=True)
class ObjRef:
    """Serializable reference to a marshal-by-reference object.

    ``uris`` lists one remoting URI per channel the home host listens on;
    clients pick the first whose scheme they have a channel for.
    ``type_hint`` is advisory (diagnostics, proxy repr) — dispatch is by
    name at the server, never by client-side type trust.
    """

    uris: tuple[str, ...]
    type_hint: str = ""
    host_id: str = ""

    def __post_init__(self) -> None:
        if not self.uris:
            raise RemotingError("ObjRef must carry at least one URI")


#: The host currently encoding/decoding messages on this thread.  Host
#: methods and the dispatcher set this around formatter calls so that the
#: surrogate can publish/shortcut objects against the right object table.
current_host: contextvars.ContextVar[Any] = contextvars.ContextVar(
    "parc_current_host", default=None
)


class MbrSurrogate(Surrogate):
    """Replaces MarshalByRefObjects (and proxies) with ObjRefs on the wire."""

    wire_name = "parc.remoting.ObjRef"

    def __init__(self) -> None:
        # Import here to avoid a module cycle (proxy imports objref).
        from repro.remoting.proxy import RemoteProxy

        self.claims = (MarshalByRefObject, ObjRef, RemoteProxy)

    def encode(self, obj: Any) -> dict[str, Any]:
        from repro.remoting.proxy import RemoteProxy

        if isinstance(obj, ObjRef):
            ref = obj
        elif isinstance(obj, RemoteProxy):
            # Forward the reference unchanged: passing a proxy onward hands
            # the receiver a reference to the *original* object (SCOOPP
            # §3.1: parallel-object references may be sent as arguments).
            ref = obj._parc_objref
        else:
            host = current_host.get()
            if host is None:
                raise RemotingError(
                    f"cannot marshal {type(obj).__qualname__} by reference "
                    f"outside a remoting host context"
                )
            ref = host.objref_for(obj)
        return {
            "uris": list(ref.uris),
            "type_hint": ref.type_hint,
            "host_id": ref.host_id,
        }

    def decode(self, state: dict[str, Any]) -> Any:
        ref = ObjRef(
            uris=tuple(state["uris"]),
            type_hint=state.get("type_hint", ""),
            host_id=state.get("host_id", ""),
        )
        host = current_host.get()
        if host is not None:
            local = host.resolve_local(ref)
            if local is not None:
                return local
            return host.make_proxy(ref)
        from repro.remoting.proxy import RemoteProxy

        return RemoteProxy(ref)
