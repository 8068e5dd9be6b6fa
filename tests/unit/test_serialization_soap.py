"""Unit tests for the SOAP formatter and its escaping/parsing."""

from __future__ import annotations

import array
from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import SerializationError, UnknownTypeError, WireFormatError
from repro.serialization import BinaryFormatter, SoapFormatter
from repro.serialization.registry import serializable
from repro.serialization.soap import escape_text, unescape_text


@serializable(name="test.soap.Record")
@dataclass
class Record:
    label: str
    values: list


@pytest.fixture
def formatter():
    return SoapFormatter()


def roundtrip(formatter, value):
    return formatter.loads(formatter.dumps(value))


class TestEscaping:
    @pytest.mark.parametrize(
        "text",
        ["", "plain", "<tag>", "a&b", 'quo"te', "new\nline", "\x00\x01",
         "unicode: ñ € 日本語", "mixed <&> \t end", "]]>", "&#x41;"],
    )
    def test_escape_roundtrip(self, text):
        assert unescape_text(escape_text(text)) == text

    def test_escaped_output_contains_no_raw_markup(self):
        escaped = escape_text('<v t="str">&')
        assert "<" not in escaped
        assert '"' not in escaped
        # Every & must start a recognised entity.
        index = 0
        while (index := escaped.find("&", index)) != -1:
            assert escaped[index:].startswith(
                ("&amp;", "&lt;", "&gt;", "&quot;", "&#x")
            )
            index += 1

    def test_unterminated_entity_rejected(self):
        with pytest.raises(WireFormatError):
            unescape_text("&amp")

    def test_unknown_entity_rejected(self):
        with pytest.raises(WireFormatError):
            unescape_text("&bogus;")


class TestRoundtrip:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 42, -7, 2**70, 3.25, float("inf"), "text",
         "needs <escaping> & \"quotes\"", b"\x00binary\xff", bytearray(b"x"),
         [1, [2, [3]]], (1, "two"), {"k": [1, 2]}, {1, 2}, frozenset({3}),
         complex(0.5, -1.5)],
    )
    def test_values(self, formatter, value):
        result = roundtrip(formatter, value)
        assert result == value
        assert type(result) is type(value)

    def test_nan(self, formatter):
        import math

        assert math.isnan(roundtrip(formatter, float("nan")))

    def test_shared_refs_and_cycles(self, formatter):
        shared = [1]
        value = {"a": shared, "b": shared}
        result = roundtrip(formatter, value)
        assert result["a"] is result["b"]
        cyclic = []
        cyclic.append(cyclic)
        result = roundtrip(formatter, cyclic)
        assert result[0] is result

    def test_array_and_ndarray(self, formatter):
        arr = array.array("i", [10, -20, 30])
        assert roundtrip(formatter, arr) == arr
        matrix = np.eye(3)
        result = roundtrip(formatter, matrix)
        assert (result == matrix).all()

    def test_registered_object(self, formatter):
        record = Record(label="r<1>", values=[1, None])
        result = roundtrip(formatter, record)
        assert isinstance(result, Record)
        assert result.label == "r<1>"
        assert result.values == [1, None]

    def test_unregistered_rejected(self, formatter):
        class Nope:
            pass

        with pytest.raises(UnknownTypeError):
            formatter.dumps(Nope())


class TestEnvelope:
    def test_output_is_soap_wrapped(self, formatter):
        text = formatter.dumps(1).decode()
        assert text.startswith("<soap:Envelope")
        assert text.endswith("</soap:Envelope>")

    def test_missing_envelope_rejected(self, formatter):
        with pytest.raises(WireFormatError):
            formatter.loads(b'<v t="int">1</v>')

    def test_non_utf8_rejected(self, formatter):
        with pytest.raises(WireFormatError):
            formatter.loads(b"\xff\xfe\x00")

    def test_trailing_content_rejected(self, formatter):
        good = formatter.dumps(1).decode()
        tampered = good.replace(
            "</soap:Body>", '<v t="int">2</v></soap:Body>'
        )
        with pytest.raises(WireFormatError):
            formatter.loads(tampered.encode())

    def test_malformed_value_rejected(self, formatter):
        body = '<v t="int">not-a-number</v>'
        payload = (
            '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/'
            f'envelope/"><soap:Body>{body}</soap:Body></soap:Envelope>'
        )
        with pytest.raises(WireFormatError):
            formatter.loads(payload.encode())

    def test_nesting_deeper_than_the_interpreter_recurses(self, formatter):
        body = '<v t="list" n="1">' * 5000 + '<v t="none"/>' + "</v>" * 5000
        payload = (
            '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/'
            f'envelope/"><soap:Body>{body}</soap:Body></soap:Envelope>'
        )
        with pytest.raises(WireFormatError, match="nested too deeply"):
            formatter.loads(payload.encode())
        deep: list = []
        for _ in range(5000):
            deep = [deep]
        with pytest.raises(SerializationError, match="nested too deeply"):
            formatter.dumps(deep)

    def test_unknown_type_tag_rejected(self, formatter):
        body = '<v t="mystery">x</v>'
        payload = (
            '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/'
            f'envelope/"><soap:Body>{body}</soap:Body></soap:Envelope>'
        )
        with pytest.raises(WireFormatError):
            formatter.loads(payload.encode())


class TestSizeContrast:
    """The Fig. 8b premise: SOAP output is materially larger than binary."""

    def test_soap_larger_than_binary_for_int_arrays(self):
        payload = array.array("i", range(1024))
        soap_size = len(SoapFormatter().dumps(payload))
        binary_size = len(BinaryFormatter().dumps(payload))
        assert soap_size > binary_size * 1.25

    def test_soap_much_larger_for_structures(self):
        value = [{"key": index, "flag": True} for index in range(100)]
        soap_size = len(SoapFormatter().dumps(value))
        binary_size = len(BinaryFormatter().dumps(value))
        assert soap_size > binary_size * 3

    def test_formatters_agree_on_value(self):
        value = {"nested": [1, (2.5, "x")], "b": b"\x01"}
        binary = BinaryFormatter()
        soap = SoapFormatter()
        assert binary.loads(binary.dumps(value)) == soap.loads(soap.dumps(value))
