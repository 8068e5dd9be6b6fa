"""SOAP-like textual formatter (the .Net SOAP/HTTP formatter analog).

The paper's Fig. 8b shows the Mono **Http channel** (which carries SOAP
envelopes) far below the Tcp/binary channel at every message size.  That gap
is a property of the encoding itself — a self-describing, escaped, base64-
heavy text format is several times larger and slower to produce than the
tagged binary format.  This module reproduces that encoding honestly: it is
a real, parseable XML-subset codec, not a stub, and the byte-size ratio
between :class:`SoapFormatter` and
:class:`~repro.serialization.BinaryFormatter` output is what drives
the Http curve in the FIG8b benchmark.

Grammar (strict subset of XML, hand-parsed)::

    document := '<soap:Envelope><soap:Body>' value '</soap:Body></soap:Envelope>'
    value    := '<v' attrs '/>' | '<v' attrs '>' body '</v>'
    field    := '<f n="..."">' value '</f>'

The same object-graph reference semantics as the binary formatter apply
(shared refs and cycles via ``<v t="ref" id="n"/>``).
"""

from __future__ import annotations

import array
import base64
import math
import sys
from typing import Any

from repro.errors import SerializationError, WireFormatError
from repro.serialization.base import Formatter
from repro.serialization.binary import _ARRAY_TYPECODES, import_numpy

_PROLOG = '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body>'
_EPILOG = "</soap:Body></soap:Envelope>"

# Characters emitted verbatim inside text content / attribute values.
_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " .,:;!?_-+*/=()[]{}@#$%^|~'`\n\t"
)


def escape_text(text: str) -> str:
    """Escape arbitrary text for inclusion in an element or attribute.

    Anything outside a conservative safe set becomes a numeric character
    reference, so every valid Python string round-trips (including control
    characters XML 1.0 proper would forbid).
    """
    parts: list[str] = []
    for char in text:
        if char in _SAFE:
            parts.append(char)
        elif char == "&":
            parts.append("&amp;")
        elif char == "<":
            parts.append("&lt;")
        elif char == ">":
            parts.append("&gt;")
        elif char == '"':
            parts.append("&quot;")
        else:
            parts.append(f"&#x{ord(char):x};")
    return "".join(parts)


def unescape_text(text: str) -> str:
    """Inverse of :func:`escape_text`."""
    if "&" not in text:
        return text
    parts: list[str] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char != "&":
            parts.append(char)
            index += 1
            continue
        end = text.find(";", index)
        if end < 0:
            raise WireFormatError("unterminated character reference")
        entity = text[index + 1 : end]
        if entity == "amp":
            parts.append("&")
        elif entity == "lt":
            parts.append("<")
        elif entity == "gt":
            parts.append(">")
        elif entity == "quot":
            parts.append('"')
        elif entity.startswith("#x"):
            try:
                parts.append(chr(int(entity[2:], 16)))
            except ValueError as exc:
                raise WireFormatError(f"bad character reference &{entity};") from exc
        else:
            raise WireFormatError(f"unknown entity &{entity};")
        index = end + 1
    return "".join(parts)


def _format_float(value: float) -> str:
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


def _parse_float(text: str) -> float:
    return float(text)


class SoapFormatter(Formatter):
    """Verbose self-describing text formatter behind the HTTP channel."""

    content_type = "text/xml; charset=utf-8"

    def dumps(self, obj: Any) -> bytes:
        parts: list[str] = [_PROLOG]
        try:
            self._encode(parts, obj, memo={})
        except RecursionError:
            raise SerializationError(
                "object graph nested too deeply to encode"
            ) from None
        parts.append(_EPILOG)
        return "".join(parts).encode("utf-8")

    def loads(self, data: Any) -> Any:
        """Decode *data* (``bytes``, ``bytearray`` or ``memoryview``)."""
        try:
            text = str(data, "utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError("SOAP payload is not valid UTF-8") from exc
        if not text.startswith(_PROLOG) or not text.endswith(_EPILOG):
            raise WireFormatError("missing SOAP envelope")
        parser = _Parser(text, len(_PROLOG), len(text) - len(_EPILOG), self)
        try:
            value = parser.parse_value()
            parser.expect_end()
        except SerializationError:
            raise
        except (ValueError, TypeError, OverflowError, KeyError) as exc:
            # Same fuzz-tested contract as the binary formatter.
            raise WireFormatError(f"malformed payload: {exc}") from exc
        except RecursionError:
            raise WireFormatError("payload nested too deeply") from None
        return value

    # -- encoding -----------------------------------------------------------

    def _encode(self, parts: list[str], obj: Any, memo: dict[int, int]) -> None:
        if obj is None:
            parts.append('<v t="none"/>')
            return
        if obj is True or obj is False:
            parts.append(f'<v t="bool">{"true" if obj else "false"}</v>')
            return
        kind = type(obj)
        if kind is int:
            parts.append(f'<v t="int">{obj}</v>')
            return
        if kind is float:
            parts.append(f'<v t="float">{_format_float(obj)}</v>')
            return
        if kind is complex:
            parts.append(
                f'<v t="complex">{_format_float(obj.real)} '
                f"{_format_float(obj.imag)}</v>"
            )
            return
        if kind is str:
            parts.append(f'<v t="str">{escape_text(obj)}</v>')
            return
        if kind is bytes:
            encoded = base64.b64encode(obj).decode("ascii")
            parts.append(f'<v t="bytes">{encoded}</v>')
            return
        ref = memo.get(id(obj))
        if ref is not None:
            parts.append(f'<v t="ref" id="{ref}"/>')
            return
        memo[id(obj)] = len(memo)
        if kind is bytearray:
            encoded = base64.b64encode(bytes(obj)).decode("ascii")
            parts.append(f'<v t="bytearray">{encoded}</v>')
            return
        if kind in (list, tuple, set, frozenset):
            label = {
                list: "list",
                tuple: "tuple",
                set: "set",
                frozenset: "frozenset",
            }[kind]
            parts.append(f'<v t="{label}" n="{len(obj)}">')
            for item in obj:
                self._encode(parts, item, memo)
            parts.append("</v>")
            return
        if kind is dict:
            parts.append(f'<v t="dict" n="{len(obj)}">')
            for key, value in obj.items():
                self._encode(parts, key, memo)
                self._encode(parts, value, memo)
            parts.append("</v>")
            return
        if kind is array.array:
            if obj.typecode not in _ARRAY_TYPECODES:
                raise SerializationError(
                    f"unsupported array typecode {obj.typecode!r}"
                )
            encoded = base64.b64encode(obj.tobytes()).decode("ascii")
            parts.append(f'<v t="array" c="{obj.typecode}">{encoded}</v>')
            return
        numpy = sys.modules.get("numpy")  # see binary.py: never imported here
        if numpy is not None and kind is numpy.ndarray:
            if obj.dtype.hasobject:
                raise SerializationError("object-dtype ndarrays are not portable")
            contiguous = numpy.ascontiguousarray(obj)
            shape = " ".join(str(dim) for dim in contiguous.shape)
            encoded = base64.b64encode(contiguous.tobytes()).decode("ascii")
            parts.append(
                f'<v t="ndarray" dtype="{escape_text(contiguous.dtype.str)}" '
                f'shape="{shape}">{encoded}</v>'
            )
            return
        self._encode_object(parts, obj, memo)

    def _encode_object(
        self, parts: list[str], obj: Any, memo: dict[int, int]
    ) -> None:
        surrogate = self.registry.surrogate_for(obj)
        if surrogate is not None:
            wire_name = surrogate.wire_name
            state = surrogate.encode(obj)
        else:
            wire_name = self.registry.wire_name_of(type(obj))
            state = self.registry.state_of(obj)
        parts.append(f'<v t="obj" c="{escape_text(wire_name)}" n="{len(state)}">')
        for field, value in state.items():
            parts.append(f'<f n="{escape_text(field)}">')
            self._encode(parts, value, memo)
            parts.append("</f>")
        parts.append("</v>")


class _Parser:
    """Hand-written recursive-descent parser for the SOAP subset."""

    def __init__(self, text: str, start: int, end: int, formatter: SoapFormatter):
        self.text = text
        self.pos = start
        self.end = end
        self.formatter = formatter
        self.refs: list[Any] = []

    # -- lexical helpers ----------------------------------------------------

    def _error(self, message: str) -> WireFormatError:
        return WireFormatError(f"{message} at offset {self.pos}")

    def _literal(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise self._error(f"expected {token!r}")
        self.pos += len(token)

    def _open_tag(self, name: str) -> tuple[dict[str, str], bool]:
        """Consume ``<name attr="v"...>`` or ``<name .../>``.

        Returns (attributes, self_closing).
        """
        self._literal(f"<{name}")
        attrs: dict[str, str] = {}
        while True:
            if self.pos >= self.end:
                raise self._error("unterminated tag")
            char = self.text[self.pos]
            if char == " ":
                self.pos += 1
                continue
            if self.text.startswith("/>", self.pos):
                self.pos += 2
                return attrs, True
            if char == ">":
                self.pos += 1
                return attrs, False
            eq = self.text.find('="', self.pos)
            if eq < 0:
                raise self._error("malformed attribute")
            key = self.text[self.pos : eq]
            close = self.text.find('"', eq + 2)
            if close < 0:
                raise self._error("unterminated attribute value")
            attrs[key] = unescape_text(self.text[eq + 2 : close])
            self.pos = close + 1

    def _text_until(self, closer: str) -> str:
        index = self.text.find(closer, self.pos)
        if index < 0 or index > self.end:
            raise self._error(f"missing {closer!r}")
        raw = self.text[self.pos : index]
        self.pos = index + len(closer)
        return raw

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise self._error("trailing content after value")

    # -- grammar ------------------------------------------------------------

    def parse_value(self) -> Any:
        attrs, self_closing = self._open_tag("v")
        tag = attrs.get("t")
        if tag is None:
            raise self._error("value missing t attribute")
        if tag == "none":
            if not self_closing:
                self._literal("</v>")
            return None
        if tag == "ref":
            index = int(attrs["id"])
            if index >= len(self.refs):
                raise self._error(f"back-reference {index} out of range")
            value = self.refs[index]
            if value is _PENDING:
                raise self._error("cycle through an immutable container")
            return value
        if self_closing:
            raise self._error(f"value of type {tag!r} cannot be empty")
        if tag in ("list", "tuple", "set", "frozenset", "dict", "obj"):
            return self._parse_container(tag, attrs)
        body = unescape_text(self._text_until("</v>"))
        return self._parse_scalar(tag, attrs, body)

    def _parse_scalar(self, tag: str, attrs: dict[str, str], body: str) -> Any:
        try:
            if tag == "bool":
                if body not in ("true", "false"):
                    raise self._error(f"bad bool literal {body!r}")
                return body == "true"
            if tag == "int":
                return int(body)
            if tag == "float":
                return _parse_float(body)
            if tag == "complex":
                real_text, imag_text = body.split(" ")
                return complex(_parse_float(real_text), _parse_float(imag_text))
            if tag == "str":
                return body
            if tag == "bytes":
                return base64.b64decode(body.encode("ascii"), validate=True)
            if tag == "bytearray":
                value = bytearray(
                    base64.b64decode(body.encode("ascii"), validate=True)
                )
                self.refs.append(value)
                return value
            if tag == "array":
                typecode = attrs["c"]
                if typecode not in _ARRAY_TYPECODES:
                    raise self._error(f"bad array typecode {typecode!r}")
                value = array.array(typecode)
                value.frombytes(
                    base64.b64decode(body.encode("ascii"), validate=True)
                )
                self.refs.append(value)
                return value
            if tag == "ndarray":
                return self._parse_ndarray(attrs, body)
        except (ValueError, KeyError) as exc:
            raise self._error(f"bad {tag} literal: {exc}") from exc
        raise self._error(f"unknown value type {tag!r}")

    def _parse_ndarray(self, attrs: dict[str, str], body: str) -> Any:
        numpy = import_numpy()
        dtype = numpy.dtype(attrs["dtype"])
        shape_text = attrs.get("shape", "")
        shape = tuple(int(dim) for dim in shape_text.split()) if shape_text else ()
        raw = base64.b64decode(body.encode("ascii"), validate=True)
        value = numpy.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        self.refs.append(value)
        return value

    def _parse_container(self, tag: str, attrs: dict[str, str]) -> Any:
        count = int(attrs.get("n", "0"))
        if tag == "list":
            items: list[Any] = []
            self.refs.append(items)
            for _ in range(count):
                items.append(self.parse_value())
            self._literal("</v>")
            return items
        if tag == "dict":
            mapping: dict[Any, Any] = {}
            self.refs.append(mapping)
            for _ in range(count):
                key = self.parse_value()
                mapping[key] = self.parse_value()
            self._literal("</v>")
            return mapping
        if tag == "set":
            result: set[Any] = set()
            self.refs.append(result)
            for _ in range(count):
                result.add(self.parse_value())
            self._literal("</v>")
            return result
        if tag in ("tuple", "frozenset"):
            slot = len(self.refs)
            self.refs.append(_PENDING)
            items = [self.parse_value() for _ in range(count)]
            self._literal("</v>")
            value = tuple(items) if tag == "tuple" else frozenset(items)
            self.refs[slot] = value
            return value
        # tag == "obj"
        wire_name = attrs["c"]
        surrogate = self.formatter.registry.surrogate_by_name(wire_name)
        if surrogate is not None:
            slot = len(self.refs)
            self.refs.append(_PENDING)
            state = self._parse_fields(count)
            value = surrogate.decode(state)
            self.refs[slot] = value
            return value
        obj = self.formatter.registry.new_instance(wire_name)
        self.refs.append(obj)
        state = self._parse_fields(count)
        self.formatter.registry.restore_state(obj, state)
        return obj

    def _parse_fields(self, count: int) -> dict[str, Any]:
        state: dict[str, Any] = {}
        for _ in range(count):
            field_attrs, self_closing = self._open_tag("f")
            if self_closing:
                raise self._error("field element cannot be empty")
            field = field_attrs["n"]
            state[field] = self.parse_value()
            self._literal("</f>")
        self._literal("</v>")
        return state


class _Pending:
    __slots__ = ()


_PENDING = _Pending()
