"""The binary formatter and the compiled per-class codecs it dispatches to.

:class:`BinaryFormatter` is the .Net binary formatter analog, the formatter
behind the tcp, shm, aio and loopback channels, RMI and the MPI
collectives.  It encodes by appending to a ``bytearray``
(:meth:`BinaryFormatter.dumps_into` builds a request straight into a frame
buffer; :meth:`BinaryFormatter.gather_into` references a large ``bytes``,
``bytearray``, ``array`` or ndarray payload instead of copying it) and
decodes from a ``memoryview`` with explicit positions: no stream object
and no slice copies for scalars.  The wire format is described in
:mod:`repro.serialization.binary` and frozen as golden bytes in
``tests/unit/test_wire_golden.py``.

The request, :class:`CallMessage`, is a positional record of the format
(tag ``C``: uri, method, args, kwargs or ``None``, one_way).  The replies
are *fixed-shape* registered classes whose field layout is known ahead of
time, and this module compiles those classes once:

* :func:`compile_codec` inspects a registered dataclass and builds a
  :class:`CompiledCodec` — the object-tag prefix, wire name and per-field
  name prefixes are precomputed constant byte strings, and each field gets
  a specialized encoder/decoder picked from its annotation (zigzag-varint
  ints, ``struct``-packed floats, raw utf-8 strings), so encoding an
  instance is a handful of ``bytearray`` appends with **no per-value type
  ladder** and no state-dict allocation.  Its output is byte-for-byte what
  the generic object path emits for the same instance.
* :class:`CodecRegistry` keys codecs by class (encode) and wire name
  (decode); unregistered classes take the generic object path, so a
  compiled codec never changes what the formatter accepts.

Identity semantics are preserved: a compiled object still occupies a slot
of the pre-order reference memo, so shared sub-objects and back-references
decode identically whichever side compiled the class.  A class whose
instances are expected to form reference-heavy graphs can be registered
with ``graph=True`` to skip compilation and keep the fully general
memoized object path.

The module also hosts the *method-signature* half of the fast path:
:func:`method_column_plan` derives per-argument column kinds from a
``@parallel`` method's annotations, and :func:`pack_columns` transposes a
homogeneous aggregation batch into columns so a ``processN`` flush
encodes the argument schema once instead of one tuple+dict wrapper per
call.  An all-float column travels as an ``array('d')`` and an all-int
column as an ``array`` of the narrowest signed typecode that holds it
(``b``/``h``/``i``/``q``): one typecode byte and one memcpy each way
instead of a tagged value per call.  :func:`pack_result_column` applies
the same rule to a ``returnN`` result list.
"""

from __future__ import annotations

import array
import dataclasses
import inspect
import struct
import sys
import threading
import typing
from operator import attrgetter
from typing import Any, Callable, Sequence

from repro.errors import SerializationError, WireFormatError
from repro.serialization.base import Formatter
from repro.serialization.binary import (
    _ARRAY_TYPECODES,
    append_uvarint,
    import_numpy,
    uvarint_from,
)
from repro.serialization.registry import (
    SerializationRegistry,
    default_registry,
    serializable,
)

# Tag bytes as ints (the decode ladder indexes memoryviews, which yield
# ints).  One printable byte per supported shape keeps hexdumps readable.
_O_NONE = ord("N")
_O_TRUE = ord("T")
_O_FALSE = ord("F")
_O_INT = ord("i")
_O_BIGINT = ord("l")
_O_FLOAT = ord("d")
_O_COMPLEX = ord("c")
_O_STR = ord("s")
_O_BYTES = ord("b")
_O_BYTEARRAY = ord("y")
_O_LIST = ord("L")
_O_TUPLE = ord("U")
_O_DICT = ord("D")
_O_SET = ord("S")
_O_FROZENSET = ord("z")
_O_ARRAY = ord("A")
_O_NDARRAY = ord("M")
_O_OBJECT = ord("O")
_O_REF = ord("R")
_O_CALL = ord("C")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

_DOUBLE = struct.Struct(">d")
_TAGGED_DOUBLE = struct.Struct(">cd")  # tag byte + IEEE-754 double, one pack
_TAGGED_COMPLEX = struct.Struct(">cdd")

_OBJECT_GETSTATE = getattr(object, "__getstate__", None)


#: A ``bytes``/``bytearray``/``array``/ndarray payload larger than this is
#: referenced, not copied, by :meth:`BinaryFormatter.gather_into`; the
#: framed exchange copies a body this small behind its frame head.
INLINE_MAX = 512


class _GatherMemo(dict):
    """A reference memo that also collects ``(offset, view)`` spills.

    It carries them, not the output buffer: CPython specialises method
    calls only on exact types, so a ``bytearray`` subclass would slow
    every ``append`` of the walk; the memo sees a few calls per message.
    """

    __slots__ = ("spills",)


def gather_parts(out: bytearray, spills: list) -> list:
    """``[head, payload, tail...]``: *out* with each spill at its offset."""
    if not spills:
        return [out]
    whole = memoryview(out)
    parts = []
    start = 0
    for offset, view in spills:
        parts += (whole[start:offset], view)
        start = offset
    parts.append(whole[start:])
    return parts


class _Placeholder:
    """Sentinel occupying a ref slot while an immutable container decodes."""

    __slots__ = ()


def _uvarint_bytes(value: int) -> bytes:
    out = bytearray()
    append_uvarint(out, value)
    return bytes(out)


# -- specialized field encoders/decoders -------------------------------------
#
# One pair per annotation kind.  Encoders verify the runtime type before
# taking the specialized path — an ``int``-annotated field holding a float
# (Python does not enforce annotations) falls back to the generic ladder,
# so compiled output is always exactly what the generic object path emits.


def _enc_any(fmt: "BinaryFormatter", out: bytearray, value: Any,
             memo: dict) -> None:
    fmt._encode(out, value, memo)


def _enc_int(fmt: "BinaryFormatter", out: bytearray, value: Any,
             memo: dict) -> None:
    if type(value) is int and _I64_MIN <= value <= _I64_MAX:
        out.append(_O_INT)
        value = (value << 1) ^ (value >> 63)
        while value > 0x7F:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
    else:
        fmt._encode(out, value, memo)


def _enc_float(fmt: "BinaryFormatter", out: bytearray, value: Any,
               memo: dict) -> None:
    if type(value) is float:
        out += _TAGGED_DOUBLE.pack(b"d", value)
    else:
        fmt._encode(out, value, memo)


def _enc_bool(fmt: "BinaryFormatter", out: bytearray, value: Any,
              memo: dict) -> None:
    if value is True:
        out.append(_O_TRUE)
    elif value is False:
        out.append(_O_FALSE)
    else:
        fmt._encode(out, value, memo)


def _enc_str(fmt: "BinaryFormatter", out: bytearray, value: Any,
             memo: dict) -> None:
    if type(value) is str:
        encoded = value.encode("utf-8")
        out.append(_O_STR)
        append_uvarint(out, len(encoded))
        out += encoded
    else:
        fmt._encode(out, value, memo)


def _enc_bytes(fmt: "BinaryFormatter", out: bytearray, value: Any,
               memo: dict) -> None:
    if type(value) is bytes and len(value) <= INLINE_MAX:
        out.append(_O_BYTES)
        append_uvarint(out, len(value))
        out += value
    else:  # a large payload may be gathered
        fmt._encode(out, value, memo)


def _dec_any(fmt: "BinaryFormatter", buf: Any, pos: int,
             refs: list) -> tuple[Any, int]:
    return fmt._decode(buf, pos, refs)


def _dec_int(fmt: "BinaryFormatter", buf: Any, pos: int,
             refs: list) -> tuple[Any, int]:
    if buf[pos] == _O_INT:
        value, pos = uvarint_from(buf, pos + 1)
        return (value >> 1) ^ -(value & 1), pos
    return fmt._decode(buf, pos, refs)


def _dec_float(fmt: "BinaryFormatter", buf: Any, pos: int,
               refs: list) -> tuple[Any, int]:
    if buf[pos] == _O_FLOAT:
        return _DOUBLE.unpack_from(buf, pos + 1)[0], pos + 9
    return fmt._decode(buf, pos, refs)


def _dec_bool(fmt: "BinaryFormatter", buf: Any, pos: int,
              refs: list) -> tuple[Any, int]:
    tag = buf[pos]
    if tag == _O_TRUE:
        return True, pos + 1
    if tag == _O_FALSE:
        return False, pos + 1
    return fmt._decode(buf, pos, refs)


def _dec_str(fmt: "BinaryFormatter", buf: Any, pos: int,
             refs: list) -> tuple[Any, int]:
    if buf[pos] == _O_STR:
        size, pos = uvarint_from(buf, pos + 1)
        end = pos + size
        if end > len(buf):
            raise WireFormatError("truncated string payload")
        return str(buf[pos:end], "utf-8"), end
    return fmt._decode(buf, pos, refs)


def _dec_bytes(fmt: "BinaryFormatter", buf: Any, pos: int,
               refs: list) -> tuple[Any, int]:
    if buf[pos] == _O_BYTES:
        size, pos = uvarint_from(buf, pos + 1)
        end = pos + size
        if end > len(buf):
            raise WireFormatError("truncated bytes payload")
        return bytes(buf[pos:end]), end
    return fmt._decode(buf, pos, refs)


_FIELD_CODECS: dict[type, tuple[Callable, Callable]] = {
    int: (_enc_int, _dec_int),
    float: (_enc_float, _dec_float),
    bool: (_enc_bool, _dec_bool),
    str: (_enc_str, _dec_str),
    bytes: (_enc_bytes, _dec_bytes),
}


def _annotation_kind(annotation: Any) -> tuple[Callable, Callable]:
    """Specialized (encoder, decoder) for a field annotation, or generic."""
    return _FIELD_CODECS.get(annotation, (_enc_any, _dec_any))


def _resolved_hints(obj: Any) -> dict[str, Any]:
    """Best-effort annotation resolution (PEP 563 strings and all)."""
    try:
        return typing.get_type_hints(obj)
    except Exception:  # noqa: BLE001 - unresolvable hints mean "no hints"
        return {}


@dataclasses.dataclass(frozen=True)
class _FieldCodec:
    """One compiled field: constant name prefix + specialized enc/dec."""

    name: str
    prefix: bytes  # uvarint(len(name)) + utf-8 name, as the wire carries it
    enc: Callable
    dec: Callable


class CompiledCodec:
    """Specialized encoder/decoder for one registered dataclass.

    The compiled encode path appends the class's precomputed object-tag
    prefix (tag + wire name + field count) and then, per field, a constant
    name prefix plus the field's specialized value encoding — matching the
    generic object path byte-for-byte.  Decode walks the same layout; when a
    payload does not match the compiled shape (an old peer sent a renamed
    or missing field) it degrades to the generic state-dict path, keeping
    the registry's schema-evolution rules (`__parc_upgrade__`, defaults).
    """

    __slots__ = (
        "cls", "wire_name", "name_bytes", "prefix", "fields", "_getter",
        "_direct",
    )

    def __init__(self, cls: type, wire_name: str,
                 fields: Sequence[_FieldCodec]) -> None:
        self.cls = cls
        self.wire_name = wire_name
        self.name_bytes = wire_name.encode("utf-8")
        self.fields = tuple(fields)
        prefix = bytearray()
        prefix.append(_O_OBJECT)
        append_uvarint(prefix, len(self.name_bytes))
        prefix += self.name_bytes
        append_uvarint(prefix, len(self.fields))
        self.prefix = bytes(prefix)
        names = [f.name for f in self.fields]
        if len(names) == 1:
            single = attrgetter(names[0])
            self._getter = lambda obj: (single(obj),)
        elif names:
            self._getter = attrgetter(*names)
        else:
            self._getter = lambda obj: ()
        # Direct field installation is only safe without restore hooks.
        self._direct = getattr(cls, "__parc_upgrade__", None) is None

    def encode(self, out: bytearray, obj: Any, fmt: "BinaryFormatter",
               memo: dict) -> None:
        out += self.prefix
        for field, value in zip(self.fields, self._getter(obj)):
            out += field.prefix
            field.enc(fmt, out, value, memo)

    def decode(self, fmt: "BinaryFormatter", buf: Any, pos: int,
               refs: list) -> tuple[Any, int]:
        cls = self.cls
        obj = cls.__new__(cls)
        refs.append(obj)  # same pre-order slot as the generic object path
        count, pos = uvarint_from(buf, pos)
        values: list[Any] = []
        matched = 0
        if count == len(self.fields):
            for field in self.fields:
                end = pos + len(field.prefix)
                if buf[pos:end] == field.prefix:
                    value, pos = field.dec(fmt, buf, end, refs)
                    values.append(value)
                    matched += 1
                else:
                    break
            if matched == count and self._direct:
                set_attr = object.__setattr__
                for field, value in zip(self.fields, values):
                    set_attr(obj, field.name, value)
                return obj, pos
        # Shape mismatch (schema drift) or a restore hook: fall back to the
        # registry's state-dict path for the remaining fields.
        state = {
            self.fields[i].name: values[i] for i in range(matched)
        }
        for _ in range(count - matched):
            size, pos = uvarint_from(buf, pos)
            end = pos + size
            if end > len(buf):
                raise WireFormatError("truncated field name")
            name = str(buf[pos:end], "utf-8")
            state[name], pos = fmt._decode(buf, end, refs)
        fmt.registry.restore_state(obj, state)
        return obj, pos


def compile_codec(
    cls: type,
    registry: SerializationRegistry | None = None,
) -> CompiledCodec:
    """Compile a specialized wire codec for registered dataclass *cls*.

    Requirements (violations raise :class:`SerializationError`):

    * *cls* is registered in *registry* (its wire name pins the prefix);
    * *cls* is a dataclass — the field list is the wire schema, and the
      generic object path serializes dataclasses in field order, so the two
      paths agree byte-for-byte;
    * *cls* has no custom ``__getstate__``/``__setstate__`` — those hooks
      define a dynamic wire shape the compiler cannot precompute (such
      classes simply stay on the generic path).
    """
    registry = registry if registry is not None else default_registry
    wire_name = registry.wire_name_of(cls)
    if not dataclasses.is_dataclass(cls):
        raise SerializationError(
            f"cannot compile a codec for {cls.__qualname__}: codec "
            f"compilation requires a dataclass (the field list is the "
            f"wire schema)"
        )
    getstate = getattr(cls, "__getstate__", None)
    if getstate is not None and getstate is not _OBJECT_GETSTATE:
        raise SerializationError(
            f"cannot compile a codec for {cls.__qualname__}: custom "
            f"__getstate__ defines a dynamic wire shape"
        )
    if getattr(cls, "__setstate__", None) is not None:
        raise SerializationError(
            f"cannot compile a codec for {cls.__qualname__}: custom "
            f"__setstate__ defines a dynamic wire shape"
        )
    hints = _resolved_hints(cls)
    fields = []
    for field in dataclasses.fields(cls):
        enc, dec = _annotation_kind(hints.get(field.name, None))
        name_bytes = field.name.encode("utf-8")
        fields.append(
            _FieldCodec(
                name=field.name,
                prefix=_uvarint_bytes(len(name_bytes)) + name_bytes,
                enc=enc,
                dec=dec,
            )
        )
    return CompiledCodec(cls, wire_name, fields)


class CodecRegistry:
    """Compiled codecs keyed by class (encode) and wire name (decode).

    The mutable dicts are shared by reference with every
    :class:`BinaryFormatter` constructed against this registry, so
    codecs registered after a formatter exists are picked up immediately.
    Registration is idempotent per class.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.by_class: dict[type, CompiledCodec] = {}
        self.by_name: dict[bytes, CompiledCodec] = {}
        self._graph: set[type] = set()

    def register(
        self,
        cls: type,
        *,
        graph: bool = False,
        registry: SerializationRegistry | None = None,
    ) -> CompiledCodec | None:
        """Compile and install a codec for *cls*; returns it.

        ``graph=True`` marks the class graph-shaped instead: no codec is
        compiled and instances keep the fully general memoized object
        path (returns ``None``).  Only classes that are *not* claimed by
        a :class:`~repro.serialization.registry.Surrogate` may be
        compiled — surrogates rewrite instances before encoding, which a
        per-class codec would bypass.
        """
        if graph:
            with self._lock:
                codec = self.by_class.pop(cls, None)
                if codec is not None:
                    self.by_name.pop(codec.name_bytes, None)
                self._graph.add(cls)
            return None
        codec = compile_codec(cls, registry)
        with self._lock:
            self._graph.discard(cls)
            self.by_class[cls] = codec
            self.by_name[codec.name_bytes] = codec
        return codec

    def unregister(self, cls: type) -> None:
        with self._lock:
            self._graph.discard(cls)
            codec = self.by_class.pop(cls, None)
            if codec is not None:
                self.by_name.pop(codec.name_bytes, None)

    def codec_for(self, cls: type) -> CompiledCodec | None:
        return self.by_class.get(cls)

    def is_graph(self, cls: type) -> bool:
        return cls in self._graph

    def __len__(self) -> int:
        return len(self.by_class)


#: Process-wide codec registry used by :func:`register_codec` and, by
#: default, by every :class:`BinaryFormatter`.
default_codec_registry = CodecRegistry()


def register_codec(
    cls: type,
    *,
    graph: bool = False,
    registry: SerializationRegistry | None = None,
) -> CompiledCodec | None:
    """Compile a wire codec for *cls* into the default codec registry.

    The class must already be ``@serializable``.  See
    :meth:`CodecRegistry.register`.
    """
    return default_codec_registry.register(cls, graph=graph, registry=registry)


@serializable(name="parc.remoting.Call")
@dataclasses.dataclass
class CallMessage:
    """One remote method invocation request.

    ``one_way`` marks fire-and-forget calls (the transport still returns an
    acknowledgement frame, but the server dispatches the method on a worker
    thread and acknowledges immediately) — the mechanism SCOOPP's
    asynchronous parallel-object calls ride on.  Defined here, beside the
    formatter whose positional record it is; SOAP writes it by name.
    """

    uri: str
    method: str
    args: tuple = ()
    kwargs: dict = dataclasses.field(default_factory=dict)
    one_way: bool = False

    def __post_init__(self) -> None:
        # Defensive normalisation: formatters decode sequences faithfully,
        # but user code may hand us lists.
        if isinstance(self.args, list):
            self.args = tuple(self.args)


class BinaryFormatter(Formatter):
    """Compact graph-preserving binary formatter.

    The formatter behind :class:`repro.channels.tcp.TcpChannel`, matching
    the paper's measured configuration ("Mono (Tcp)" in Fig. 8).  Instances
    of codec-compiled classes (*codecs*, default
    :data:`default_codec_registry`) skip the per-value type ladder; every
    other registered class (*registry*) takes the generic object path.

    Malformed input raises :class:`~repro.errors.WireFormatError` and an
    unencodable value :class:`~repro.errors.SerializationError`, including
    a graph nested deeper than the interpreter's recursion limit.
    """

    content_type = "application/x-parc-binary"

    def __init__(
        self,
        registry: SerializationRegistry | None = None,
        codecs: CodecRegistry | None = None,
    ) -> None:
        super().__init__(registry)
        self.codecs = codecs if codecs is not None else default_codec_registry
        # Bound dict references: one attribute load on the hot path.
        self._codec_by_class = self.codecs.by_class
        self._codec_by_name = self.codecs.by_name

    # -- encoding -----------------------------------------------------------

    def dumps(self, obj: Any) -> bytes:
        out = bytearray()
        self.dumps_into(out, obj)
        return bytes(out)

    def dumps_into(self, out: bytearray, obj: Any) -> None:
        """Append the encoding of *obj* to *out* (no intermediate bytes)."""
        try:
            self._encode(out, obj, {})
        except RecursionError:
            raise SerializationError(
                "object graph nested too deeply to encode"
            ) from None

    def gather_into(self, out: bytearray, obj: Any) -> list:
        """:meth:`dumps_into`, but a ``bytes``, ``bytearray``, ``array``
        or ndarray payload over :data:`INLINE_MAX` bytes is written only
        up to its length prefix and returned as ``(offset, view)``."""
        memo = _GatherMemo()
        memo.spills = spills = []
        try:
            self._encode(out, obj, memo)
        except BaseException as exc:
            for _offset, view in spills:
                view.release()
            if isinstance(exc, RecursionError):
                raise SerializationError(
                    "object graph nested too deeply to encode"
                ) from None
            raise
        return spills

    def _encode(self, out: bytearray, obj: Any, memo: dict) -> None:
        if obj is None:
            out.append(_O_NONE)
            return
        if obj is True:
            out.append(_O_TRUE)
            return
        if obj is False:
            out.append(_O_FALSE)
            return
        kind = type(obj)
        if kind is int:
            if _I64_MIN <= obj <= _I64_MAX:
                out.append(_O_INT)
                obj = (obj << 1) ^ (obj >> 63)
                while obj > 0x7F:
                    out.append((obj & 0x7F) | 0x80)
                    obj >>= 7
                out.append(obj)
            else:
                blob = obj.to_bytes(
                    (obj.bit_length() + 8) // 8, "big", signed=True
                )
                out.append(_O_BIGINT)
                append_uvarint(out, len(blob))
                out += blob
            return
        if kind is float:
            out += _TAGGED_DOUBLE.pack(b"d", obj)
            return
        if kind is complex:
            out += _TAGGED_COMPLEX.pack(b"c", obj.real, obj.imag)
            return
        if kind is str:
            encoded = obj.encode("utf-8")
            out.append(_O_STR)
            append_uvarint(out, len(encoded))
            out += encoded
            return
        if kind is bytes:
            out.append(_O_BYTES)
            size = len(obj)
            append_uvarint(out, size)
            if size > INLINE_MAX and type(memo) is _GatherMemo:
                memo.spills.append((len(out), memoryview(obj)))
            else:
                out += obj
            return
        # Everything below is identity-tracked: a memo slot per value in
        # pre-order, the index a later back-reference names.
        ref = memo.get(id(obj))
        if ref is not None:
            out.append(_O_REF)
            append_uvarint(out, ref)
            return
        memo[id(obj)] = len(memo)
        if kind is tuple:
            out.append(_O_TUPLE)
            append_uvarint(out, len(obj))
            for item in obj:
                self._encode(out, item, memo)
            return
        if kind is list:
            out.append(_O_LIST)
            append_uvarint(out, len(obj))
            for item in obj:
                self._encode(out, item, memo)
            return
        if kind is dict:
            out.append(_O_DICT)
            append_uvarint(out, len(obj))
            for key, value in obj.items():
                self._encode(out, key, memo)
                self._encode(out, value, memo)
            return
        if kind is CallMessage:
            out.append(_O_CALL)
            for value in (obj.uri, obj.method, obj.args, obj.kwargs or None):
                self._encode(out, value, memo)
            out.append(_O_TRUE if obj.one_way else _O_FALSE)
            return
        codec = self._codec_by_class.get(kind)
        if codec is not None:
            codec.encode(out, obj, self, memo)
            return
        if kind is bytearray:
            out.append(_O_BYTEARRAY)
            size = len(obj)
            append_uvarint(out, size)
            if size > INLINE_MAX and type(memo) is _GatherMemo:
                memo.spills.append((len(out), memoryview(obj)))
            else:
                out += obj
            return
        if kind is set or kind is frozenset:
            out.append(_O_SET if kind is set else _O_FROZENSET)
            append_uvarint(out, len(obj))
            for item in obj:
                self._encode(out, item, memo)
            return
        if kind is array.array:
            if obj.typecode not in _ARRAY_TYPECODES:
                raise SerializationError(
                    f"unsupported array typecode {obj.typecode!r}"
                )
            out.append(_O_ARRAY)
            out += obj.typecode.encode("ascii")
            size = len(obj) * obj.itemsize
            append_uvarint(out, size)
            if size > INLINE_MAX and type(memo) is _GatherMemo:
                memo.spills.append((len(out), memoryview(obj).cast("B")))
            else:
                out += obj  # one memcpy from the array's buffer, no tobytes()
            return
        numpy = sys.modules.get("numpy")  # see binary.py: never imported here
        if numpy is not None and kind is numpy.ndarray:
            self._encode_ndarray(out, obj, numpy, memo)
            return
        self._encode_object(out, obj, memo)

    def _encode_ndarray(self, out: bytearray, arr: Any, numpy: Any,
                        memo: dict) -> None:
        if arr.dtype.hasobject:
            raise SerializationError("object-dtype ndarrays are not portable")
        contiguous = numpy.ascontiguousarray(arr)
        dtype = contiguous.dtype.str.encode("ascii")
        out.append(_O_NDARRAY)
        append_uvarint(out, len(dtype))
        out += dtype
        append_uvarint(out, contiguous.ndim)
        for dim in contiguous.shape:
            append_uvarint(out, dim)
        append_uvarint(out, contiguous.nbytes)
        if contiguous.nbytes > INLINE_MAX and type(memo) is _GatherMemo:
            memo.spills.append((len(out), contiguous.data.cast("B")))
        else:
            out += contiguous.data.cast("B")  # one memcpy, no tobytes()

    def _encode_object(self, out: bytearray, obj: Any,
                            memo: dict) -> None:
        surrogate = self.registry.surrogate_for(obj)
        if surrogate is not None:
            wire_name = surrogate.wire_name
            state = surrogate.encode(obj)
        else:
            wire_name = self.registry.wire_name_of(type(obj))
            state = self.registry.state_of(obj)
        name_bytes = wire_name.encode("utf-8")
        out.append(_O_OBJECT)
        append_uvarint(out, len(name_bytes))
        out += name_bytes
        append_uvarint(out, len(state))
        for field, value in state.items():
            encoded = field.encode("utf-8")
            append_uvarint(out, len(encoded))
            out += encoded
            self._encode(out, value, memo)

    # -- decoding -----------------------------------------------------------

    def loads(self, data: Any) -> Any:
        """Decode *data* (``bytes``, ``bytearray`` or ``memoryview``)."""
        buf = data if isinstance(data, memoryview) else memoryview(data)
        try:
            value, pos = self._decode(buf, 0, [])
        except SerializationError:
            raise
        except (ValueError, TypeError, OverflowError, UnicodeDecodeError,
                IndexError, struct.error) as exc:
            # Corrupted payloads must surface as wire errors, never as
            # raw codec/numpy exceptions (fuzz-tested contract).
            raise WireFormatError(f"malformed payload: {exc}") from exc
        except RecursionError:
            # A few bytes per level nest deeper than the interpreter
            # recurses; a peer must not be able to crash the decoder.
            raise WireFormatError("payload nested too deeply") from None
        if pos != len(buf):
            raise WireFormatError("trailing bytes after value")
        return value

    def _decode(self, buf: Any, pos: int, refs: list) -> tuple[Any, int]:
        if pos >= len(buf):
            raise WireFormatError("truncated value (missing tag)")
        tag = buf[pos]
        pos += 1
        if tag == _O_NONE:
            return None, pos
        if tag == _O_TRUE:
            return True, pos
        if tag == _O_FALSE:
            return False, pos
        if tag == _O_INT:
            value, pos = uvarint_from(buf, pos)
            return (value >> 1) ^ -(value & 1), pos
        if tag == _O_FLOAT:
            if pos + 8 > len(buf):
                raise WireFormatError("truncated float payload")
            return _DOUBLE.unpack_from(buf, pos)[0], pos + 8
        if tag == _O_STR:
            size, pos = uvarint_from(buf, pos)
            end = pos + size
            if end > len(buf):
                raise WireFormatError("truncated string payload")
            return str(buf[pos:end], "utf-8"), end
        if tag == _O_BYTES:
            size, pos = uvarint_from(buf, pos)
            end = pos + size
            if end > len(buf):
                raise WireFormatError("truncated bytes payload")
            return bytes(buf[pos:end]), end
        if tag == _O_REF:
            index, pos = uvarint_from(buf, pos)
            if index >= len(refs):
                raise WireFormatError(f"back-reference {index} out of range")
            value = refs[index]
            if isinstance(value, _Placeholder):
                raise WireFormatError(
                    "cycle through an immutable container cannot be decoded"
                )
            return value, pos
        if tag == _O_TUPLE:
            count, pos = uvarint_from(buf, pos)
            slot = len(refs)
            refs.append(_Placeholder())
            items = []
            for _ in range(count):
                value, pos = self._decode(buf, pos, refs)
                items.append(value)
            value = tuple(items)
            refs[slot] = value
            return value, pos
        if tag == _O_LIST:
            count, pos = uvarint_from(buf, pos)
            items = []
            refs.append(items)
            for _ in range(count):
                value, pos = self._decode(buf, pos, refs)
                items.append(value)
            return items, pos
        if tag == _O_DICT:
            count, pos = uvarint_from(buf, pos)
            mapping: dict[Any, Any] = {}
            refs.append(mapping)
            for _ in range(count):
                key, pos = self._decode(buf, pos, refs)
                mapping[key], pos = self._decode(buf, pos, refs)
            return mapping, pos
        if tag == _O_OBJECT:
            return self._decode_object(buf, pos, refs)
        if tag == _O_CALL:
            return self._decode_call(buf, pos, refs)
        if tag == _O_BIGINT:
            size, pos = uvarint_from(buf, pos)
            end = pos + size
            if end > len(buf):
                raise WireFormatError("truncated bigint payload")
            return int.from_bytes(buf[pos:end], "big", signed=True), end
        if tag == _O_COMPLEX:
            if pos + 16 > len(buf):
                raise WireFormatError("truncated complex payload")
            real = _DOUBLE.unpack_from(buf, pos)[0]
            imag = _DOUBLE.unpack_from(buf, pos + 8)[0]
            return complex(real, imag), pos + 16
        if tag == _O_BYTEARRAY:
            size, pos = uvarint_from(buf, pos)
            end = pos + size
            if end > len(buf):
                raise WireFormatError("truncated bytearray payload")
            value = bytearray(buf[pos:end])
            refs.append(value)
            return value, end
        if tag == _O_SET:
            count, pos = uvarint_from(buf, pos)
            result: set[Any] = set()
            refs.append(result)
            for _ in range(count):
                value, pos = self._decode(buf, pos, refs)
                result.add(value)
            return result, pos
        if tag == _O_FROZENSET:
            count, pos = uvarint_from(buf, pos)
            slot = len(refs)
            refs.append(_Placeholder())
            items = []
            for _ in range(count):
                value, pos = self._decode(buf, pos, refs)
                items.append(value)
            value = frozenset(items)
            refs[slot] = value
            return value, pos
        if tag == _O_ARRAY:
            if pos >= len(buf):
                raise WireFormatError("truncated array typecode")
            typecode = chr(buf[pos])
            if typecode not in _ARRAY_TYPECODES:
                raise WireFormatError(f"bad array typecode {typecode!r}")
            size, pos = uvarint_from(buf, pos + 1)
            end = pos + size
            if end > len(buf):
                raise WireFormatError("truncated array payload")
            value = array.array(typecode)
            value.frombytes(buf[pos:end])
            refs.append(value)
            return value, end
        if tag == _O_NDARRAY:
            return self._decode_ndarray(buf, pos, refs)
        raise WireFormatError(f"unknown tag byte {bytes((tag,))!r}")

    def _decode_ndarray(self, buf: Any, pos: int,
                             refs: list) -> tuple[Any, int]:
        numpy = import_numpy()
        size, pos = uvarint_from(buf, pos)
        end = pos + size
        if end > len(buf):
            raise WireFormatError("truncated ndarray dtype")
        dtype = str(buf[pos:end], "ascii")
        ndim, pos = uvarint_from(buf, end)
        shape = []
        for _ in range(ndim):
            dim, pos = uvarint_from(buf, pos)
            shape.append(dim)
        size, pos = uvarint_from(buf, pos)
        end = pos + size
        if end > len(buf):
            raise WireFormatError("truncated ndarray payload")
        value = numpy.frombuffer(buf[pos:end], dtype=numpy.dtype(dtype))
        value = value.reshape(tuple(shape)).copy()  # decouple from the view
        refs.append(value)
        return value, end

    def _decode_call(self, buf: Any, pos: int,
                     refs: list) -> tuple[CallMessage, int]:
        call = CallMessage.__new__(CallMessage)
        refs.append(call)  # the slot a named object would take
        fields = call.__dict__
        for name in ("uri", "method", "args", "kwargs"):
            fields[name], pos = self._decode(buf, pos, refs)
        fields["kwargs"] = fields["kwargs"] or {}
        one_way = buf[pos]  # past the end: IndexError, a wire error
        if one_way != _O_TRUE and one_way != _O_FALSE:
            raise WireFormatError("call record's one_way is not a bool")
        fields["one_way"] = one_way == _O_TRUE
        return call, pos + 1

    def _decode_object(self, buf: Any, pos: int,
                            refs: list) -> tuple[Any, int]:
        size, pos = uvarint_from(buf, pos)
        end = pos + size
        if end > len(buf):
            raise WireFormatError("truncated object wire name")
        name_raw = bytes(buf[pos:end])
        pos = end
        codec = self._codec_by_name.get(name_raw)
        if codec is not None:
            return codec.decode(self, buf, pos, refs)
        wire_name = name_raw.decode("utf-8")
        surrogate = self.registry.surrogate_by_name(wire_name)
        if surrogate is not None:
            # The final value only exists after decode(), so back-references
            # into a surrogate-encoded object are unsupported (placeholder
            # makes that a clear error rather than silent corruption).
            slot = len(refs)
            refs.append(_Placeholder())
            count, pos = uvarint_from(buf, pos)
            state: dict[str, Any] = {}
            for _ in range(count):
                size, pos = uvarint_from(buf, pos)
                end = pos + size
                if end > len(buf):
                    raise WireFormatError("truncated field name")
                field = str(buf[pos:end], "utf-8")
                state[field], pos = self._decode(buf, end, refs)
            value = surrogate.decode(state)
            refs[slot] = value
            return value, pos
        obj = self.registry.new_instance(wire_name)
        refs.append(obj)
        count, pos = uvarint_from(buf, pos)
        state = {}
        for _ in range(count):
            size, pos = uvarint_from(buf, pos)
            end = pos + size
            if end > len(buf):
                raise WireFormatError("truncated field name")
            field = str(buf[pos:end], "utf-8")
            state[field], pos = self._decode(buf, end, refs)
        self.registry.restore_state(obj, state)
        return obj, pos


# -- columnar batch packing (the processN aggregate fast path) ---------------


def method_column_plan(func: Any) -> tuple[str | None, ...] | None:
    """Column kinds for a ``@parallel`` method's positional parameters.

    Compiled once per (class, method) by the proxy-object layer; each
    entry is ``"float"``/``"int"``/``None`` per parameter after ``self``.
    Returns ``None`` when the method has no usable signature, which makes
    :func:`pack_columns` probe column types dynamically instead.
    """
    if func is None:
        return None
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):
        return None
    hints = _resolved_hints(func)
    plan: list[str | None] = []
    parameters = list(signature.parameters.values())
    if parameters and parameters[0].name in ("self", "cls"):
        parameters = parameters[1:]
    for parameter in parameters:
        if parameter.kind not in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            return None  # *args/keyword-only: shape not statically known
        annotation = hints.get(parameter.name)
        if annotation is float:
            plan.append("float")
        elif annotation is int:
            plan.append("int")
        else:
            plan.append(None)
    return tuple(plan)


def pack_columns(
    batch: Sequence[tuple[tuple, dict]],
    plan: tuple[str | None, ...] | None = None,
) -> tuple | None:
    """Transpose a homogeneous aggregation batch into argument columns.

    *batch* is the proxy object's buffered ``[(args, kwargs), ...]``.
    Returns one column per positional argument, typed by
    :func:`_typed_column`: an ``array('d')`` when every value is a float
    (8 bytes/value in one memcpy, versus a 9-byte tagged double each), an
    ``array`` of the narrowest signed typecode (``b``/``h``/``i``/``q``)
    when every value is an int within int64 (versus a tag and a zigzag
    varint each), otherwise the ``list`` itself.  Returns ``None`` when
    the batch is heterogeneous (any kwargs, or mixed arity) and must
    travel as a classic ``[(args, kwargs)]`` batch.

    *plan* is an optional :func:`method_column_plan`; a column annotated
    ``float`` never becomes an int array and one annotated ``int`` never
    an ``array('d')``, so such a column whose values disagree with its
    annotation stays a list, exactly as the caller passed it.
    """
    if not batch:
        return None
    arity = len(batch[0][0])
    for args, kwargs in batch:
        if kwargs or len(args) != arity:
            return None
    columns = []
    for index in range(arity):
        column = [args[index] for args, _kwargs in batch]
        kind = plan[index] if plan is not None and index < len(plan) else None
        columns.append(_typed_column(column, kind))
    return tuple(columns)


#: Signed ``array`` typecodes, narrowest first, each with its largest value.
_INT_TYPECODES = tuple(
    (code, (1 << (8 * array.array(code).itemsize - 1)) - 1) for code in "bhiq"
)


def _typed_column(column: list, kind: str | None = None) -> Any:
    """*column* as an ``array`` when its values allow one, else itself.

    All exact floats (and *kind* not ``"int"``) give an ``array('d')``;
    all exact ints within int64 (and *kind* not ``"float"``) give the
    narrowest signed typecode that holds the column's min and max.  A
    ``bool``, a mix of types, an int beyond int64 or an empty column
    keeps the list.  Decoding an ``array`` yields the same Python
    ``float``/``int`` values, so the callee cannot tell the forms apart.
    """
    types = set(map(type, column))
    if len(types) != 1:
        return column
    if float in types:
        return array.array("d", column) if kind != "int" else column
    if int not in types or kind == "float":
        return column
    low, high = min(column), max(column)
    for code, limit in _INT_TYPECODES:
        if -limit - 1 <= low and high <= limit:
            return array.array(code, column)
    return column


def unpack_columns(count: int, columns: Sequence) -> list[tuple[tuple, dict]]:
    """Rebuild the ``[(args, kwargs), ...]`` batch from columnar form."""
    if not columns:
        return [((), {}) for _ in range(count)]
    try:
        batch = [(args, {}) for args in zip(*columns, strict=True)]
    except ValueError as exc:
        raise SerializationError(
            f"columnar batch length mismatch: {exc}"
        ) from None
    if len(batch) != count:
        raise SerializationError(
            f"columnar batch length mismatch: header says {count} calls, "
            f"columns carry {len(batch)}"
        )
    return batch


def pack_result_column(results: Sequence) -> Any:
    """Pack an ``invoke_batch`` result list for the ``returnN`` reply.

    The request-side column rule (:func:`_typed_column`): an all-float
    result list travels as an ``array('d')`` and an all-int one within
    int64 as the narrowest signed int ``array`` (one typecode byte + one
    memcpy on the wire instead of a tagged value per result).  Any other
    shape — mixed types, ``None`` error slots, bigints — travels as the
    list itself.
    """
    return _typed_column(list(results))


def unpack_result_column(count: int, results: Any) -> list:
    """Inverse of :func:`pack_result_column`; validates the count."""
    if results is None:
        values = [None] * count
    elif isinstance(results, array.array):
        values = results.tolist()
    else:
        values = list(results)
    if len(values) != count:
        raise SerializationError(
            f"returnN batch length mismatch: header says {count} results, "
            f"column carries {len(values)}"
        )
    return values
