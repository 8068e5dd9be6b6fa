"""Class registry for serializable user types.

The .Net formatter only serializes classes marked ``[Serializable]`` (paper
Fig. 7 marks the aggregated-parameters struct that way).  The analog here is
an explicit registry: a class is registered under a stable wire name, and
the formatters encode instances as ``(wire name, field dict)``.  Decoding
looks the wire name up and rebuilds the instance *without running user
constructors* (``__new__`` + field assignment), which mirrors how real
formatters bypass constructors and keeps deserialization free of arbitrary
code execution.

Classes may customize their wire representation with two optional hooks,
the analog of ``ISerializable``:

* ``__getstate__(self) -> dict`` — produce the field dict;
* ``__setstate__(self, state: dict) -> None`` — restore from it.

Every node runs one source version, so there are no rolling-upgrade
rules: a record that does not fit its class is a wire error
(:meth:`WireClass.restore`).
"""

from __future__ import annotations

import abc
import dataclasses
import inspect
import threading
from typing import Any, Callable, Iterator, TypeVar

from repro.errors import SerializationError, UnknownTypeError, WireFormatError
from repro.serialization.binary import append_uvarint

T = TypeVar("T", bound=type)

#: ``object.__getstate__`` exists from Python 3.11 on; before, a class
#: without the hook has none.
_OBJECT_GETSTATE = getattr(object, "__getstate__", None)


class Surrogate(abc.ABC):
    """Pluggable wire representation for a family of types.

    The analog of .Net's serialization surrogates, and the hook that makes
    remoting work: when a ``MarshalByRefObject`` appears anywhere in an
    object graph, a surrogate replaces it on the wire with an ``ObjRef``
    and the decoder materializes a transparent proxy in its place (see
    :mod:`repro.remoting.objref`).  Surrogates are consulted *before* the
    plain registered-class path, in registration order.
    """

    #: Wire name the surrogate's encoded form travels under.
    wire_name: str

    #: The types whose instances the surrogate encodes.  Like .Net's
    #: surrogate selector, which picks by type, the registry works out
    #: once per class which surrogates to ask; instances of other types
    #: never ask this one.
    claims: tuple[type, ...] = (object,)

    def applies_to(self, obj: Any) -> bool:
        """True if this surrogate should encode *obj*; a subclass narrows
        the test below ``claims`` by overriding it."""
        return isinstance(obj, self.claims)

    @abc.abstractmethod
    def encode(self, obj: Any) -> dict[str, Any]:
        """Produce the wire field dict for *obj*."""

    @abc.abstractmethod
    def decode(self, state: dict[str, Any]) -> Any:
        """Rebuild a value (not necessarily of the original type)."""


class SerializationRegistry:
    """Thread-safe bidirectional map between classes and wire names.

    A registry instance is the unit of trust: a formatter constructed with a
    registry will encode/decode exactly the classes registered in it.  The
    module-level :data:`default_registry` is what ``@serializable`` uses and
    what formatters default to.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_name: dict[str, type] = {}
        self._by_class: dict[type, str] = {}
        self._surrogates: list[Surrogate] = []
        self._surrogates_by_name: dict[str, Surrogate] = {}
        self._wire_classes: dict[type, WireClass] = {}
        self._wire_names: dict[bytes, WireClass] = {}

    def register(self, cls: type, wire_name: str | None = None) -> type:
        """Register *cls* under *wire_name* (default: qualified class name).

        Registration is idempotent for the same (class, name) pair; mapping
        the same name to a different class raises
        :class:`~repro.errors.SerializationError` — silently rebinding a
        wire name would let one endpoint decode another's payloads into an
        unexpected type.
        """
        name = wire_name if wire_name is not None else _default_wire_name(cls)
        with self._lock:
            existing = self._by_name.get(name)
            if existing is not None and existing is not cls:
                raise SerializationError(
                    f"wire name {name!r} is already registered "
                    f"to {existing.__qualname__}"
                )
            if name in self._surrogates_by_name:
                raise SerializationError(
                    f"wire name {name!r} is taken by a surrogate"
                )
            self._by_name[name] = cls
            self._by_class[cls] = name
            stale = self._wire_classes.pop(cls, None)
            if stale is not None:
                self._wire_names.pop(stale.name, None)
        return cls

    def wire_name_of(self, cls: type) -> str:
        """Return the wire name of a registered class.

        Raises :class:`~repro.errors.UnknownTypeError` for unregistered
        classes — the error a user sees when they forget ``@serializable``.
        """
        try:
            return self._by_class[cls]
        except KeyError:
            raise UnknownTypeError(
                f"{cls.__qualname__} is not registered for serialization; "
                f"decorate it with @serializable"
            ) from None

    def class_of(self, wire_name: str) -> type:
        """Return the class registered under *wire_name*."""
        try:
            return self._by_name[wire_name]
        except KeyError:
            raise UnknownTypeError(
                f"no class registered under wire name {wire_name!r}"
            ) from None

    def is_registered(self, cls: type) -> bool:
        return cls in self._by_class

    def __contains__(self, cls: type) -> bool:
        return self.is_registered(cls)

    def __iter__(self) -> Iterator[tuple[str, type]]:
        with self._lock:
            return iter(list(self._by_name.items()))

    def __len__(self) -> int:
        return len(self._by_name)

    # -- surrogates ----------------------------------------------------------

    def register_surrogate(self, surrogate: Surrogate) -> Surrogate:
        """Install *surrogate*; its wire name must be unique (idempotent
        for the same instance)."""
        with self._lock:
            existing = self._surrogates_by_name.get(surrogate.wire_name)
            if existing is surrogate:
                return surrogate
            if existing is not None:
                raise SerializationError(
                    f"a surrogate for wire name {surrogate.wire_name!r} "
                    f"is already registered"
                )
            if surrogate.wire_name in self._by_name:
                raise SerializationError(
                    f"wire name {surrogate.wire_name!r} is taken by a "
                    f"registered class"
                )
            self._surrogates.append(surrogate)
            self._surrogates_by_name[surrogate.wire_name] = surrogate
            # Every class's surrogates to ask may have changed.
            self._wire_classes.clear()
            self._wire_names.clear()
        return surrogate

    def surrogate_for(self, obj: Any) -> Surrogate | None:
        """First registered surrogate that applies to *obj*, if any."""
        for surrogate in self.wire_class(type(obj)).surrogates:
            if surrogate.applies_to(obj):
                return surrogate
        return None

    def surrogate_by_name(self, wire_name: str) -> Surrogate | None:
        return self._surrogates_by_name.get(wire_name)

    # -- state extraction ---------------------------------------------------

    def state_of(self, obj: Any) -> dict[str, Any]:
        """Extract the wire field dict of a registered instance."""
        getstate = getattr(obj, "__getstate__", None)
        if callable(getstate):
            state = getstate()
            if state is None:
                # object.__getstate__ returns None for empty instances
                state = {}
            if isinstance(state, tuple) and len(state) == 2:
                # object.__getstate__ (3.11+) returns (dict, slots) for
                # classes with __slots__; merge the two namespaces.
                dict_state, slots_state = state
                merged = dict(dict_state or {})
                merged.update(slots_state or {})
                state = merged
            if not isinstance(state, dict):
                raise SerializationError(
                    f"{type(obj).__qualname__}.__getstate__ must return a "
                    f"dict, got {type(state).__qualname__}"
                )
            return state
        if dataclasses.is_dataclass(obj):
            # Shallow field extraction: nested values are encoded by the
            # formatter's own recursion, so dataclasses.asdict (deep copy)
            # would both waste work and break shared references.
            return {
                f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            }
        try:
            return dict(vars(obj))
        except TypeError:
            raise SerializationError(
                f"{type(obj).__qualname__} has no __dict__ and no "
                f"__getstate__; cannot extract wire state"
            ) from None

    def new_instance(self, wire_name: str) -> Any:
        """Allocate an empty instance of the class behind *wire_name*.

        The constructor is deliberately not called: the wire state fully
        determines the object, and running ``__init__`` on attacker-supplied
        field values would be an execution vector.
        """
        cls = self.class_of(wire_name)
        return cls.__new__(cls)

    def restore_state(self, obj: Any, state: dict[str, Any]) -> None:
        """Install a decoded field dict on a freshly allocated instance
        (:meth:`WireClass.restore` states the rule)."""
        self.wire_class(type(obj)).restore(obj, state)

    # -- per-class layout ----------------------------------------------------

    def wire_class(self, cls: type) -> "WireClass":
        """The :class:`WireClass` of *cls*, worked out on first use."""
        wire = self._wire_classes.get(cls)
        if wire is None:
            with self._lock:
                wire = WireClass(
                    cls, self._by_class.get(cls), self._surrogates
                )
                self._wire_classes[cls] = wire
                if wire.name is not None:
                    self._wire_names[wire.name] = wire
        return wire

    def wire_class_named(self, name: bytes) -> "WireClass | None":
        """The kept :class:`WireClass` whose spelled wire name is *name*."""
        return self._wire_names.get(name)


class WireClass:
    """What the formatters need of one class, worked out once.

    ``fields`` is the set of a dataclass's field names, which every
    record of it must carry (empty for other classes); ``surrogates``
    are the surrogates whose ``claims`` cover the class, in registration
    order; ``setstate`` says that ``__setstate__`` owns restore.
    ``plain`` says the state is the instance ``__dict__`` as a whole (no
    ``__getstate__``, ``__setstate__`` or ``__slots__``): it is read with
    ``vars`` and, unless a key names one of the ``descriptors`` (a
    property, say), installed with one ``update``.  ``name`` and ``keys`` are the binary
    formatter's spelling of the wire name and of each dataclass field
    name: a uvarint length, then the utf-8 bytes.  ``name`` is ``None``
    for a class not registered for the wire (a by-reference type, say).
    """

    __slots__ = (
        "cls", "fields", "surrogates", "setstate", "plain", "descriptors",
        "name", "keys",
    )

    def __init__(
        self,
        cls: type,
        wire_name: str | None,
        surrogates: list[Surrogate],
    ) -> None:
        self.cls = cls
        names = (
            [field.name for field in dataclasses.fields(cls)]
            if dataclasses.is_dataclass(cls) else []
        )
        self.fields = frozenset(names)
        self.surrogates = tuple(
            surrogate for surrogate in surrogates
            if issubclass(cls, surrogate.claims)
        )
        self.setstate = callable(getattr(cls, "__setstate__", None))
        bases = cls.__mro__[:-1]  # object's own attributes are no fields
        self.plain = (
            cls.__dictoffset__ != 0
            and not self.setstate
            and getattr(cls, "__getstate__", None) is _OBJECT_GETSTATE
            and not any("__slots__" in vars(base) for base in bases)
        )
        self.descriptors = frozenset(
            name
            for base in bases
            for name, attr in vars(base).items()
            if inspect.isdatadescriptor(attr)
        )
        self.name = None if wire_name is None else spell(wire_name)
        self.keys = {name: spell(name) for name in names}

    def restore(self, obj: Any, state: dict[str, Any]) -> None:
        """Install a decoded field dict on a freshly allocated instance.

        Every node runs one source version, so a record must fit its
        class: ``__setstate__`` owns its state; otherwise a record that
        lacks one of a dataclass's fields, or names a field the class
        cannot hold (a ``__slots__`` class without it), raises
        :class:`~repro.errors.WireFormatError`.  Extra attributes of a
        ``__dict__`` instance are installed as sent.
        """
        if self.setstate:
            obj.__setstate__(state)
            return
        if not state.keys() >= self.fields:
            missing = ", ".join(sorted(self.fields - state.keys()))
            raise WireFormatError(
                f"{self.cls.__qualname__} record lacks field(s) {missing}"
            )
        if self.plain and self.descriptors.isdisjoint(state):
            vars(obj).update(state)
            return
        for key, value in state.items():
            try:
                object.__setattr__(obj, key, value)
            except AttributeError:
                raise WireFormatError(
                    f"{self.cls.__qualname__} cannot hold field {key!r}"
                ) from None


def spell(name: str) -> bytes:
    """*name* as the binary format writes a name: uvarint length, utf-8."""
    encoded = name.encode("utf-8")
    out = bytearray()
    append_uvarint(out, len(encoded))
    out += encoded
    return bytes(out)


def _default_wire_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


#: The process-wide registry used by ``@serializable`` and, by default, by
#: every formatter.
default_registry = SerializationRegistry()


def serializable(
    cls: T | None = None, *, name: str | None = None
) -> T | Callable[[T], T]:
    """Class decorator marking a type as allowed on the wire.

    The analog of C#'s ``[Serializable]`` (paper Fig. 7)::

        @serializable
        @dataclass
        class ParamsProcess:
            num: list[int]

    An explicit wire name decouples the protocol from the Python module
    layout::

        @serializable(name="parc.PrimeBatch")
        class PrimeBatch: ...
    """

    def decorate(klass: T) -> T:
        default_registry.register(klass, name)
        return klass

    if cls is None:
        return decorate
    return decorate(cls)
