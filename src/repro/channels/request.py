"""Request/response payload codec shared by the framed channels.

tcp, shm and aio speak the same payload language inside their frames —
only the pipe and the framing discipline differ (strictly ordered versus
correlation-id multiplexed).  Requests are built by appending to a frame
buffer (:func:`encode_request_meta`) and both directions are decoded in
place from a ``memoryview`` of the frame; :func:`encode_request` is the
reference encoder tests hold that path to.

Request payload layout (inside one frame)::

    uvarint len(path)    path bytes (utf-8)
    uvarint header-count (len(key) key len(value) value)*
    body (rest of frame)

Response payload layout::

    status byte (0 = ok, 1 = handler raised)
    body (result bytes, or utf-8 error text when status = 1)
"""

from __future__ import annotations

import io
from typing import Mapping

from repro.errors import ChannelError, WireFormatError
from repro.serialization.binary import (
    append_uvarint,
    uvarint_from,
    write_uvarint,
)

STATUS_OK = 0
STATUS_ERROR = 1


def encode_request(path: str, headers: Mapping[str, str], body: bytes) -> bytes:
    out = io.BytesIO()
    path_bytes = path.encode("utf-8")
    write_uvarint(out, len(path_bytes))
    out.write(path_bytes)
    write_uvarint(out, len(headers))
    for key, value in headers.items():
        key_bytes = key.encode("utf-8")
        value_bytes = value.encode("utf-8")
        write_uvarint(out, len(key_bytes))
        out.write(key_bytes)
        write_uvarint(out, len(value_bytes))
        out.write(value_bytes)
    out.write(body)
    return out.getvalue()


def encode_request_meta(out: bytearray, path: str, headers: Mapping[str, str]) -> None:
    """Append the request *metadata* (path + headers) to a buffer.

    A frame is built as ``[reserved header][meta][body]`` in one
    ``bytearray``: this writes the meta section, then the caller appends
    the body via ``formatter.gather_into`` — no intermediate ``bytes``
    objects at any step.
    """
    path_bytes = path.encode("utf-8")
    append_uvarint(out, len(path_bytes))
    out += path_bytes
    append_uvarint(out, len(headers))
    for key, value in headers.items():
        key_bytes = key.encode("utf-8")
        value_bytes = value.encode("utf-8")
        append_uvarint(out, len(key_bytes))
        out += key_bytes
        append_uvarint(out, len(value_bytes))
        out += value_bytes


def _sized_read(buf: memoryview, pos: int) -> tuple[memoryview, int]:
    size, pos = uvarint_from(buf, pos)
    end = pos + size
    if end > len(buf):
        raise WireFormatError("truncated request payload")
    return buf[pos:end], end


def decode_request_view(payload) -> tuple[str, dict[str, str], memoryview]:
    """Decode a request payload; the body comes back as a view.

    The returned body ``memoryview`` aliases *payload* — callers that keep
    it past the underlying buffer's reuse must copy it explicitly.
    """
    buf = payload if isinstance(payload, memoryview) else memoryview(payload)
    chunk, pos = _sized_read(buf, 0)
    path = str(chunk, "utf-8")
    header_count, pos = uvarint_from(buf, pos)
    headers: dict[str, str] = {}
    for _ in range(header_count):
        chunk, pos = _sized_read(buf, pos)
        key = str(chunk, "utf-8")
        chunk, pos = _sized_read(buf, pos)
        headers[key] = str(chunk, "utf-8")
    return path, headers, buf[pos:]


def decode_response_view(payload) -> memoryview:
    """Return the response body as a view; :class:`ChannelError` on failure."""
    buf = payload if isinstance(payload, memoryview) else memoryview(payload)
    if not len(buf):
        raise ChannelError("empty response payload")
    status = buf[0]
    if status == STATUS_ERROR:
        raise ChannelError(
            f"remote handler failed: {bytes(buf[1:]).decode('utf-8', 'replace')}"
        )
    if status != STATUS_OK:
        raise ChannelError(f"unknown response status {status}")
    return buf[1:]
