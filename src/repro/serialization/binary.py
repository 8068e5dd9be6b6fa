"""Tagged binary object-graph formatter (the .Net binary formatter analog).

Wire format
-----------

A value is one tag byte followed by a tag-specific payload.  Unsigned
lengths and counts are LEB128 varints.  Signed integers are zigzag varints,
falling back to a length-prefixed big-endian two's-complement blob for
magnitudes that do not fit 64 bits (Python ints are unbounded).

Object-graph identity is preserved: every container or registered object is
assigned a reference index in pre-order as it is first encoded; later
occurrences of the *same* object (``is``-identity) encode as a back
reference.  This is what lets the formatter "reconstruct a copy of the
original object structure" (paper §1) including shared sub-objects and
cycles — the capability the paper contrasts with MPI's flat, explicitly
packed buffers.

Cycles through immutable containers (tuple/frozenset) cannot be
reconstructed without placeholder mutation, so they are rejected with
:class:`~repro.errors.SerializationError`; cycles through lists, dicts,
sets and registered objects round-trip.
"""

from __future__ import annotations

import array
import io
import struct
import sys
from typing import Any

from repro.errors import SerializationError, WireFormatError
from repro.serialization.base import Formatter

# numpy ndarrays are a supported payload type (int[] workloads), but no
# formatter imports numpy up front: an ndarray can only exist in a
# process that already imported numpy, so encoders look it up in
# sys.modules, and decoders import it when one arrives.

# Tag bytes.  One printable byte per supported shape keeps hexdumps readable.
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"  # zigzag varint (fits in 64 bits signed)
_T_BIGINT = b"l"  # length-prefixed two's-complement big-endian
_T_FLOAT = b"d"  # IEEE-754 double, big-endian
_T_COMPLEX = b"c"  # two doubles
_T_STR = b"s"  # varint length + UTF-8
_T_BYTES = b"b"  # varint length + raw
_T_BYTEARRAY = b"y"
_T_LIST = b"L"  # varint count + items
_T_TUPLE = b"U"
_T_DICT = b"D"  # varint count + key/value pairs
_T_SET = b"S"
_T_FROZENSET = b"z"
_T_ARRAY = b"A"  # array.array: typecode byte + varint byte-length + raw
_T_NDARRAY = b"M"  # numpy: dtype str + ndim + shape + raw (C order)
_T_OBJECT = b"O"  # registered class: wire name + state dict
_T_REF = b"R"  # varint back-reference index

_DOUBLE = struct.Struct(">d")

# array.array typecodes whose element size is platform-stable enough for a
# wire format (we normalise to their byte representation + typecode).
_ARRAY_TYPECODES = frozenset("bBhHiIlLqQfd")


def write_uvarint(out: io.BytesIO, value: int) -> None:
    """Append *value* (non-negative) as a LEB128 varint."""
    if value < 0:
        raise SerializationError(f"uvarint cannot encode negative {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def read_uvarint(buf: io.BytesIO) -> int:
    """Read a LEB128 varint; raises WireFormatError on truncation."""
    shift = 0
    result = 0
    while True:
        raw = buf.read(1)
        if not raw:
            raise WireFormatError("truncated varint")
        byte = raw[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift > 630:  # ints are unbounded but varints here are lengths
            raise WireFormatError("varint too long")


def append_uvarint(out: bytearray, value: int) -> None:
    """Append *value* (non-negative) as a LEB128 varint to a bytearray.

    The allocation-free sibling of :func:`write_uvarint`, used by the
    zero-copy fast path (:mod:`repro.serialization.codec`).  Both emit
    identical bytes.
    """
    if value < 0:
        raise SerializationError(f"uvarint cannot encode negative {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def uvarint_from(buf: Any, pos: int) -> tuple[int, int]:
    """Read a LEB128 varint from a buffer at *pos*; returns (value, pos').

    *buf* may be ``bytes``, ``bytearray`` or a ``memoryview`` — indexing
    yields ints either way, so the fast decode path never materialises an
    intermediate ``BytesIO``.
    """
    shift = 0
    result = 0
    size = len(buf)
    while True:
        if pos >= size:
            raise WireFormatError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 630:  # ints are unbounded but varints here are lengths
            raise WireFormatError("varint too long")


def import_numpy() -> Any:
    """numpy, imported on the first ndarray a process decodes."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is installed in CI
        raise WireFormatError(
            "ndarray on the wire but numpy unavailable"
        ) from None
    return numpy


def zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else (value << 1) ^ -1


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


class BinaryFormatter(Formatter):
    """Compact graph-preserving binary formatter.

    This is the formatter behind :class:`repro.channels.tcp.TcpChannel`,
    matching the paper's measured configuration ("Mono (Tcp)" in Fig. 8).
    """

    content_type = "application/x-parc-binary"

    def dumps(self, obj: Any) -> bytes:
        out = io.BytesIO()
        self._encode(out, obj, memo={})
        return out.getvalue()

    def loads(self, data: bytes) -> Any:
        buf = io.BytesIO(data)
        try:
            value = self._decode(buf, refs=[])
        except SerializationError:
            raise
        except (ValueError, TypeError, OverflowError, UnicodeDecodeError) as exc:
            # Corrupted payloads must surface as wire errors, never as
            # raw codec/numpy exceptions (fuzz-tested contract).
            raise WireFormatError(f"malformed payload: {exc}") from exc
        trailing = buf.read(1)
        if trailing:
            raise WireFormatError("trailing bytes after value")
        return value

    # -- encoding -----------------------------------------------------------

    def _encode(self, out: io.BytesIO, obj: Any, memo: dict[int, int]) -> None:
        if obj is None:
            out.write(_T_NONE)
            return
        if obj is True:
            out.write(_T_TRUE)
            return
        if obj is False:
            out.write(_T_FALSE)
            return
        kind = type(obj)
        if kind is int:
            if -(1 << 63) <= obj < (1 << 63):
                out.write(_T_INT)
                write_uvarint(out, zigzag(obj))
            else:
                blob = obj.to_bytes(
                    (obj.bit_length() + 8) // 8, "big", signed=True
                )
                out.write(_T_BIGINT)
                write_uvarint(out, len(blob))
                out.write(blob)
            return
        if kind is float:
            out.write(_T_FLOAT)
            out.write(_DOUBLE.pack(obj))
            return
        if kind is complex:
            out.write(_T_COMPLEX)
            out.write(_DOUBLE.pack(obj.real))
            out.write(_DOUBLE.pack(obj.imag))
            return
        if kind is str:
            encoded = obj.encode("utf-8")
            out.write(_T_STR)
            write_uvarint(out, len(encoded))
            out.write(encoded)
            return
        if kind is bytes:
            out.write(_T_BYTES)
            write_uvarint(out, len(obj))
            out.write(obj)
            return
        # Everything below is identity-tracked (may be shared or cyclic).
        ref = memo.get(id(obj))
        if ref is not None:
            out.write(_T_REF)
            write_uvarint(out, ref)
            return
        memo[id(obj)] = len(memo)
        if kind is bytearray:
            out.write(_T_BYTEARRAY)
            write_uvarint(out, len(obj))
            out.write(bytes(obj))
            return
        if kind is list:
            out.write(_T_LIST)
            write_uvarint(out, len(obj))
            for item in obj:
                self._encode(out, item, memo)
            return
        if kind is tuple:
            out.write(_T_TUPLE)
            write_uvarint(out, len(obj))
            for item in obj:
                self._encode(out, item, memo)
            return
        if kind is dict:
            out.write(_T_DICT)
            write_uvarint(out, len(obj))
            for key, value in obj.items():
                self._encode(out, key, memo)
                self._encode(out, value, memo)
            return
        if kind is set or kind is frozenset:
            out.write(_T_SET if kind is set else _T_FROZENSET)
            write_uvarint(out, len(obj))
            for item in obj:
                self._encode(out, item, memo)
            return
        if kind is array.array:
            if obj.typecode not in _ARRAY_TYPECODES:
                raise SerializationError(
                    f"unsupported array typecode {obj.typecode!r}"
                )
            raw = obj.tobytes()
            out.write(_T_ARRAY)
            out.write(obj.typecode.encode("ascii"))
            write_uvarint(out, len(raw))
            out.write(raw)
            return
        numpy = sys.modules.get("numpy")
        if numpy is not None and kind is numpy.ndarray:
            self._encode_ndarray(out, obj, numpy)
            return
        self._encode_object(out, obj, memo)

    def _encode_ndarray(self, out: io.BytesIO, arr: Any, numpy: Any) -> None:
        if arr.dtype.hasobject:
            raise SerializationError("object-dtype ndarrays are not portable")
        contiguous = numpy.ascontiguousarray(arr)
        dtype = contiguous.dtype.str.encode("ascii")
        out.write(_T_NDARRAY)
        write_uvarint(out, len(dtype))
        out.write(dtype)
        write_uvarint(out, contiguous.ndim)
        for dim in contiguous.shape:
            write_uvarint(out, dim)
        raw = contiguous.tobytes()
        write_uvarint(out, len(raw))
        out.write(raw)

    def _encode_object(
        self, out: io.BytesIO, obj: Any, memo: dict[int, int]
    ) -> None:
        surrogate = self.registry.surrogate_for(obj)
        if surrogate is not None:
            wire_name = surrogate.wire_name
            state = surrogate.encode(obj)
        else:
            wire_name = self.registry.wire_name_of(type(obj))
            state = self.registry.state_of(obj)
        name_bytes = wire_name.encode("utf-8")
        out.write(_T_OBJECT)
        write_uvarint(out, len(name_bytes))
        out.write(name_bytes)
        write_uvarint(out, len(state))
        for field, value in state.items():
            encoded = field.encode("utf-8")
            write_uvarint(out, len(encoded))
            out.write(encoded)
            self._encode(out, value, memo)

    # -- decoding -----------------------------------------------------------

    def _decode(self, buf: io.BytesIO, refs: list[Any]) -> Any:
        tag = buf.read(1)
        if not tag:
            raise WireFormatError("truncated value (missing tag)")
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return unzigzag(read_uvarint(buf))
        if tag == _T_BIGINT:
            blob = self._read_exact(buf, read_uvarint(buf))
            return int.from_bytes(blob, "big", signed=True)
        if tag == _T_FLOAT:
            return _DOUBLE.unpack(self._read_exact(buf, 8))[0]
        if tag == _T_COMPLEX:
            real = _DOUBLE.unpack(self._read_exact(buf, 8))[0]
            imag = _DOUBLE.unpack(self._read_exact(buf, 8))[0]
            return complex(real, imag)
        if tag == _T_STR:
            return self._read_exact(buf, read_uvarint(buf)).decode("utf-8")
        if tag == _T_BYTES:
            return self._read_exact(buf, read_uvarint(buf))
        if tag == _T_REF:
            index = read_uvarint(buf)
            if index >= len(refs):
                raise WireFormatError(f"back-reference {index} out of range")
            value = refs[index]
            if isinstance(value, _Placeholder):
                raise WireFormatError(
                    "cycle through an immutable container cannot be decoded"
                )
            return value
        if tag == _T_BYTEARRAY:
            value = bytearray(self._read_exact(buf, read_uvarint(buf)))
            refs.append(value)
            return value
        if tag == _T_LIST:
            count = read_uvarint(buf)
            items: list[Any] = []
            refs.append(items)
            for _ in range(count):
                items.append(self._decode(buf, refs))
            return items
        if tag == _T_TUPLE:
            count = read_uvarint(buf)
            slot = len(refs)
            refs.append(_Placeholder())
            value = tuple(self._decode(buf, refs) for _ in range(count))
            refs[slot] = value
            return value
        if tag == _T_DICT:
            count = read_uvarint(buf)
            mapping: dict[Any, Any] = {}
            refs.append(mapping)
            for _ in range(count):
                key = self._decode(buf, refs)
                mapping[key] = self._decode(buf, refs)
            return mapping
        if tag == _T_SET:
            count = read_uvarint(buf)
            result: set[Any] = set()
            refs.append(result)
            for _ in range(count):
                result.add(self._decode(buf, refs))
            return result
        if tag == _T_FROZENSET:
            count = read_uvarint(buf)
            slot = len(refs)
            refs.append(_Placeholder())
            value = frozenset(self._decode(buf, refs) for _ in range(count))
            refs[slot] = value
            return value
        if tag == _T_ARRAY:
            typecode = self._read_exact(buf, 1).decode("ascii")
            if typecode not in _ARRAY_TYPECODES:
                raise WireFormatError(f"bad array typecode {typecode!r}")
            raw = self._read_exact(buf, read_uvarint(buf))
            value = array.array(typecode)
            value.frombytes(raw)
            refs.append(value)
            return value
        if tag == _T_NDARRAY:
            return self._decode_ndarray(buf, refs)
        if tag == _T_OBJECT:
            return self._decode_object(buf, refs)
        raise WireFormatError(f"unknown tag byte {tag!r}")

    def _decode_ndarray(self, buf: io.BytesIO, refs: list[Any]) -> Any:
        numpy = import_numpy()
        dtype = self._read_exact(buf, read_uvarint(buf)).decode("ascii")
        ndim = read_uvarint(buf)
        shape = tuple(read_uvarint(buf) for _ in range(ndim))
        raw = self._read_exact(buf, read_uvarint(buf))
        value = numpy.frombuffer(raw, dtype=numpy.dtype(dtype)).reshape(shape)
        value = value.copy()  # frombuffer returns a read-only view
        refs.append(value)
        return value

    def _decode_object(self, buf: io.BytesIO, refs: list[Any]) -> Any:
        wire_name = self._read_exact(buf, read_uvarint(buf)).decode("utf-8")
        surrogate = self.registry.surrogate_by_name(wire_name)
        if surrogate is not None:
            # The final value only exists after decode(), so back-references
            # into a surrogate-encoded object are unsupported (placeholder
            # makes that a clear error rather than silent corruption).
            slot = len(refs)
            refs.append(_Placeholder())
            count = read_uvarint(buf)
            state: dict[str, Any] = {}
            for _ in range(count):
                field = self._read_exact(buf, read_uvarint(buf)).decode("utf-8")
                state[field] = self._decode(buf, refs)
            value = surrogate.decode(state)
            refs[slot] = value
            return value
        obj = self.registry.new_instance(wire_name)
        refs.append(obj)
        count = read_uvarint(buf)
        state = {}
        for _ in range(count):
            field = self._read_exact(buf, read_uvarint(buf)).decode("utf-8")
            state[field] = self._decode(buf, refs)
        self.registry.restore_state(obj, state)
        return obj

    @staticmethod
    def _read_exact(buf: io.BytesIO, size: int) -> bytes:
        data = buf.read(size)
        if len(data) != size:
            raise WireFormatError(
                f"truncated payload: wanted {size} bytes, got {len(data)}"
            )
        return data


class _Placeholder:
    """Sentinel occupying a ref slot while an immutable container decodes."""

    __slots__ = ()
