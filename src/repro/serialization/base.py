"""Formatter interface shared by the binary and SOAP encoders."""

from __future__ import annotations

import abc
from typing import Any

from repro.serialization.registry import SerializationRegistry, default_registry


class Formatter(abc.ABC):
    """Encodes/decodes an object graph to/from ``bytes``.

    A formatter is the pluggable serialization half of a channel, exactly as
    in .Net remoting where the TCP channel defaults to the binary formatter
    and the HTTP channel to the SOAP formatter (the two curves of the
    paper's Fig. 8b).  Formatters are stateless between calls and safe to
    share across threads.
    """

    #: MIME-style label carried in channel headers.
    content_type: str = "application/octet-stream"

    def __init__(self, registry: SerializationRegistry | None = None) -> None:
        self.registry = registry if registry is not None else default_registry

    @abc.abstractmethod
    def dumps(self, obj: Any) -> bytes:
        """Encode *obj* (an arbitrary supported object graph) to bytes."""

    def dumps_into(self, out: bytearray, obj: Any) -> None:
        """Append the encoding of *obj* to *out*.

        The default copies :meth:`dumps`'s bytes; a formatter that can
        append in place overrides it.
        """
        out += self.dumps(obj)

    def gather_into(self, out: bytearray, obj: Any) -> list:
        """:meth:`dumps_into`, but returns ``[(offset, view)]`` for the
        payloads it referenced instead of copying: byte-format views,
        each belonging at *offset* in *out*.  The default copies all."""
        self.dumps_into(out, obj)
        return []

    @abc.abstractmethod
    def loads(self, data: Any) -> Any:
        """Decode what :meth:`dumps` produced back into an object graph.

        *data* is any bytes-like object: the framed channels hand over a
        ``memoryview`` of the reply frame.
        """
