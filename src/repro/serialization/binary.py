"""Wire-format primitives of the binary formatter.

The formatter itself (:class:`~repro.serialization.codec.BinaryFormatter`,
the .Net binary formatter analog) lives in :mod:`repro.serialization.codec`
beside the column packing of aggregates.  This module holds
the pieces the format is built from, shared with the request framing of the
socket channels (:mod:`repro.channels.request`) and the SOAP formatter.

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
reconstructed without placeholder mutation, so decoding one raises
:class:`~repro.errors.WireFormatError`; cycles through lists, dicts, sets
and registered objects round-trip.
"""

from __future__ import annotations

import io
from typing import Any

from repro.errors import SerializationError, WireFormatError

# numpy ndarrays are a supported payload type (int[] workloads), but no
# formatter imports numpy up front: an ndarray can only exist in a
# process that already imported numpy, so encoders look it up in
# sys.modules, and decoders import it when one arrives.

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


def append_uvarint(out: bytearray, value: int) -> None:
    """Append *value* (non-negative) as a LEB128 varint to a bytearray.

    The allocation-free sibling of :func:`write_uvarint`, used by the
    formatter (:mod:`repro.serialization.codec`).  Both emit identical
    bytes; :func:`uvarint_from` reads either.
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
    yields ints either way, so decoding never materialises an intermediate
    ``BytesIO``.
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
