"""The binary formatter and the column packing of aggregates.

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
(tag ``C``: uri, method, args, kwargs or ``None``, one_way).  Every other
registered class, the replies included, takes one object path: tag ``O``,
the wire name, then each field as a name and a value.  Surrogates are
consulted first, every object takes a slot of the pre-order reference
memo, and the spelled wire name and field names are worked out once per
class (:class:`~repro.serialization.registry.WireClass`).  Decoding
installs a record by the registry's one-version rule
(:meth:`~repro.serialization.registry.WireClass.restore`).

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
import typing
from typing import Any, Sequence

from repro.errors import SerializationError, WireFormatError
from repro.serialization.base import Formatter
from repro.serialization.binary import (
    _ARRAY_TYPECODES,
    append_uvarint,
    import_numpy,
    uvarint_from,
)
from repro.serialization.registry import serializable, spell

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


def _resolved_hints(obj: Any) -> dict[str, Any]:
    """Best-effort annotation resolution (PEP 563 strings and all)."""
    try:
        return typing.get_type_hints(obj)
    except Exception:  # noqa: BLE001 - unresolvable hints mean "no hints"
        return {}


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
    the paper's measured configuration ("Mono (Tcp)" in Fig. 8).  Every
    class registered in *registry* takes one object path; its spelled
    wire name and field names are worked out once per class
    (:class:`~repro.serialization.registry.WireClass`).

    Malformed input raises :class:`~repro.errors.WireFormatError` and an
    unencodable value :class:`~repro.errors.SerializationError`, including
    a graph nested deeper than the interpreter's recursion limit.
    """

    content_type = "application/x-parc-binary"

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

    def _encode_object(self, out: bytearray, obj: Any, memo: dict) -> None:
        registry = self.registry
        surrogate = registry.surrogate_for(obj)
        if surrogate is not None:
            name, keys = spell(surrogate.wire_name), {}
            state = surrogate.encode(obj)
        else:
            kind = type(obj)
            wire = registry.wire_class(kind)
            if wire.name is None:
                registry.wire_name_of(kind)  # raises UnknownTypeError
            name, keys = wire.name, wire.keys
            state = vars(obj) if wire.plain else registry.state_of(obj)
        out.append(_O_OBJECT)
        out += name
        append_uvarint(out, len(state))
        for field, value in state.items():
            out += keys.get(field) or spell(field)
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
        start = pos
        size, pos = uvarint_from(buf, pos)
        end = pos + size
        if end > len(buf):
            raise WireFormatError("truncated object wire name")
        registry = self.registry
        wire = registry.wire_class_named(bytes(buf[start:end]))
        if wire is None:
            wire_name = str(buf[pos:end], "utf-8")
            surrogate = registry.surrogate_by_name(wire_name)
            if surrogate is not None:
                # The final value only exists after decode(), so
                # back-references into a surrogate-encoded object are
                # unsupported (the placeholder makes that a clear error
                # rather than silent corruption).
                slot = len(refs)
                refs.append(_Placeholder())
                state, pos = self._decode_state(buf, end, refs)
                value = surrogate.decode(state)
                refs[slot] = value
                return value, pos
            wire = registry.wire_class(registry.class_of(wire_name))
        obj = wire.cls.__new__(wire.cls)
        refs.append(obj)
        state, pos = self._decode_state(buf, end, refs)
        wire.restore(obj, state)
        return obj, pos

    def _decode_state(self, buf: Any, pos: int,
                      refs: list) -> tuple[dict[str, Any], int]:
        count, pos = uvarint_from(buf, pos)
        state: dict[str, Any] = {}
        for _ in range(count):
            size, pos = uvarint_from(buf, pos)
            end = pos + size
            if end > len(buf):
                raise WireFormatError("truncated field name")
            field = str(buf[pos:end], "utf-8")
            state[field], pos = self._decode(buf, end, refs)
        return state, pos


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
