"""Object-graph serialization: the formatter layer of the remoting stack.

The paper's platform relies on .Net object serialization: "the serialisation
mechanism can automatically copy the object to a continuous stream that can
be sent to another virtual machine, which can reconstruct a copy of the
original object structure on the remote machine" (§1).  This package is that
mechanism, built from scratch:

* :class:`BinaryFormatter` — compact tagged binary encoding with full
  object-graph support (shared references and cycles), the analog of the
  .Net binary formatter used by the TCP channel.  It encodes into a
  ``bytearray`` (``dumps_into`` appends to a frame buffer) and decodes
  from a ``memoryview``; every registered class takes one object path.
  ``FastBinaryFormatter`` is an alias of it.
* :class:`SoapFormatter` — verbose, self-describing textual encoding, the
  analog of the SOAP formatter used by the HTTP channel (the slow curve of
  the paper's Fig. 8b).
* a class **registry** (:func:`serializable`) so that only explicitly
  registered classes cross the wire — the ``[Serializable]`` attribute of
  the paper's Fig. 7.  Nothing is ever deserialized into arbitrary code,
  and a record that does not fit its class (every node runs one source
  version) is a :class:`~repro.errors.WireFormatError`.

Both formatters share the registry and round-trip the same value domain;
property-based tests assert they agree.  The binary wire format is frozen as
golden bytes in ``tests/unit/test_wire_golden.py``.
"""

from repro.serialization.registry import (
    SerializationRegistry,
    Surrogate,
    default_registry,
    serializable,
)
from repro.serialization.codec import BinaryFormatter
from repro.serialization.soap import SoapFormatter
from repro.serialization.base import Formatter

#: The formatter's former name; ``benchmarks/parcbench/ladder.py`` imports it.
FastBinaryFormatter = BinaryFormatter

__all__ = [
    "BinaryFormatter",
    "FastBinaryFormatter",
    "Formatter",
    "SerializationRegistry",
    "SoapFormatter",
    "Surrogate",
    "default_registry",
    "serializable",
]
