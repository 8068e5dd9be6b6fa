"""Unit tests for the binary formatter."""

from __future__ import annotations

import array
import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import (
    SerializationError,
    UnknownTypeError,
    WireFormatError,
)
from repro.serialization import BinaryFormatter, SerializationRegistry
from repro.serialization.binary import (
    append_uvarint,
    uvarint_from,
    write_uvarint,
)
from repro.serialization.registry import serializable


@serializable(name="test.bin.Point")
@dataclass
class Point:
    x: int
    y: float


@serializable(name="test.bin.TreeNode")
class TreeNode:
    def __init__(self, value=None):
        self.value = value
        self.children = []


@serializable(name="test.bin.Stateful")
class Stateful:
    def __init__(self):
        self.secret = "runtime-only"
        self.kept = 1

    def __getstate__(self):
        return {"kept": self.kept}

    def __setstate__(self, state):
        self.kept = state["kept"]
        self.secret = "restored"


@pytest.fixture
def formatter():
    return BinaryFormatter()


def roundtrip(formatter, value):
    return formatter.loads(formatter.dumps(value))


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**31, -(2**31), 2**62, "", "héllo",
         "line\nbreak", b"", b"\x00\xff", 0.0, -0.0, 1.5, 1e300, -1e-300,
         complex(1.5, -2.5)],
    )
    def test_roundtrip(self, formatter, value):
        result = roundtrip(formatter, value)
        assert result == value
        assert type(result) is type(value)

    def test_huge_int_roundtrip(self, formatter):
        value = 12345678901234567890123456789012345678901234567890
        assert roundtrip(formatter, value) == value
        assert roundtrip(formatter, -value) == -value

    def test_int_boundary_64bit(self, formatter):
        for value in [(1 << 63) - 1, -(1 << 63), 1 << 63, -(1 << 63) - 1]:
            assert roundtrip(formatter, value) == value

    def test_nan_roundtrip(self, formatter):
        result = roundtrip(formatter, float("nan"))
        assert math.isnan(result)

    def test_inf_roundtrip(self, formatter):
        assert roundtrip(formatter, float("inf")) == float("inf")
        assert roundtrip(formatter, float("-inf")) == float("-inf")

    def test_bool_is_not_int(self, formatter):
        # bool subclasses int; the formatter must preserve the exact type.
        assert roundtrip(formatter, True) is True
        assert roundtrip(formatter, 1) == 1
        assert roundtrip(formatter, 1) is not True


class TestContainers:
    @pytest.mark.parametrize(
        "value",
        [[], [1, 2, 3], (), (1,), {"a": 1}, {1: "x", (2, 3): [4]},
         set(), {1, 2}, frozenset({3, 4}), [[1], [2, [3]]],
         bytearray(b"mut"), {"mixed": [1, "two", 3.0, None, True]}],
    )
    def test_roundtrip(self, formatter, value):
        result = roundtrip(formatter, value)
        assert result == value
        assert type(result) is type(value)

    def test_dict_preserves_insertion_order(self, formatter):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(roundtrip(formatter, value)) == ["z", "a", "m"]

    def test_shared_reference_identity(self, formatter):
        shared = [1, 2]
        value = {"first": shared, "second": shared}
        result = roundtrip(formatter, value)
        assert result["first"] is result["second"]

    def test_distinct_equal_lists_stay_distinct(self, formatter):
        value = [[1, 2], [1, 2]]
        result = roundtrip(formatter, value)
        assert result[0] == result[1]
        assert result[0] is not result[1]

    def test_self_referential_list(self, formatter):
        value = [1]
        value.append(value)
        result = roundtrip(formatter, value)
        assert result[0] == 1
        assert result[1] is result

    def test_self_referential_dict(self, formatter):
        value = {}
        value["me"] = value
        result = roundtrip(formatter, value)
        assert result["me"] is result

    def test_cycle_through_tuple_rejected(self, formatter):
        inner = []
        value = (inner,)
        inner.append(value)
        with pytest.raises(WireFormatError):
            roundtrip(formatter, value)

    def test_array_roundtrip(self, formatter):
        for typecode in "bBhHiIlLqQfd":
            value = array.array(typecode, [0, 1, 2])
            result = roundtrip(formatter, value)
            assert result == value
            assert result.typecode == typecode

    def test_ndarray_roundtrip(self, formatter):
        value = np.arange(12, dtype=np.int64).reshape(3, 4)
        result = roundtrip(formatter, value)
        assert result.dtype == value.dtype
        assert result.shape == value.shape
        assert (result == value).all()

    def test_ndarray_float32(self, formatter):
        value = np.linspace(0, 1, 7, dtype=np.float32)
        result = roundtrip(formatter, value)
        assert result.dtype == np.float32
        assert np.allclose(result, value)

    def test_object_dtype_rejected(self, formatter):
        value = np.array([object()], dtype=object)
        with pytest.raises(SerializationError):
            formatter.dumps(value)


class TestObjects:
    def test_dataclass_roundtrip(self, formatter):
        result = roundtrip(formatter, Point(3, 4.5))
        assert isinstance(result, Point)
        assert (result.x, result.y) == (3, 4.5)

    def test_object_graph_with_cycle(self, formatter):
        root = TreeNode("root")
        child = TreeNode("child")
        root.children.append(child)
        child.children.append(root)  # cycle through registered objects
        result = roundtrip(formatter, root)
        assert result.value == "root"
        assert result.children[0].value == "child"
        assert result.children[0].children[0] is result

    def test_getstate_setstate_honoured(self, formatter):
        original = Stateful()
        original.kept = 7
        result = roundtrip(formatter, original)
        assert result.kept == 7
        assert result.secret == "restored"

    def test_unregistered_class_rejected(self, formatter):
        class Unregistered:
            pass

        with pytest.raises(UnknownTypeError):
            formatter.dumps(Unregistered())

    def test_constructor_not_called_on_decode(self, formatter):
        calls = []

        @serializable(name="test.bin.CtorSpy")
        class CtorSpy:
            def __init__(self):
                calls.append(1)
                self.x = 0

        spy = CtorSpy()
        calls.clear()
        result = roundtrip(formatter, spy)
        assert calls == []
        assert result.x == 0


class TestWireErrors:
    def test_trailing_bytes_rejected(self, formatter):
        data = formatter.dumps(1) + b"extra"
        with pytest.raises(WireFormatError):
            formatter.loads(data)

    def test_truncated_payload_rejected(self, formatter):
        data = formatter.dumps("hello world")
        with pytest.raises(WireFormatError):
            formatter.loads(data[:-3])

    def test_empty_input_rejected(self, formatter):
        with pytest.raises(WireFormatError):
            formatter.loads(b"")

    def test_unknown_tag_rejected(self, formatter):
        with pytest.raises(WireFormatError):
            formatter.loads(b"\xff")

    def test_nesting_deeper_than_the_interpreter_recurses(self, formatter):
        """A 10 KB frame must not escape the wire-error contract, and a
        value nested that deep fails as a serialization error."""
        with pytest.raises(WireFormatError, match="nested too deeply"):
            formatter.loads(b"L\x01" * 5000 + b"N")
        deep: list = []
        for _ in range(5000):
            deep = [deep]
        with pytest.raises(SerializationError, match="nested too deeply"):
            formatter.dumps(deep)
        # The formatter is still usable afterwards.
        assert roundtrip(formatter, [[1]]) == [[1]]

    def test_bad_backreference_rejected(self, formatter):
        out = bytearray(b"R")
        append_uvarint(out, 99)
        with pytest.raises(WireFormatError):
            formatter.loads(out)


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_uvarint_roundtrip(self, value):
        import io

        stream = io.BytesIO()
        write_uvarint(stream, value)
        appended = bytearray()
        append_uvarint(appended, value)
        assert stream.getvalue() == appended
        assert uvarint_from(appended, 0) == (value, len(appended))

    def test_negative_uvarint_rejected(self):
        import io

        with pytest.raises(SerializationError):
            write_uvarint(io.BytesIO(), -1)
        with pytest.raises(SerializationError):
            append_uvarint(bytearray(), -1)

    def test_truncated_uvarint_rejected(self):
        with pytest.raises(WireFormatError):
            uvarint_from(b"\x80", 0)

    @pytest.mark.parametrize("value", [0, 1, -1, 63, -64, 2**62, -(2**62)])
    def test_zigzag_roundtrip(self, formatter, value):
        zigzag = (value << 1) ^ (value >> 63)
        expected = bytearray(b"i")
        append_uvarint(expected, zigzag)
        assert formatter.dumps(value) == expected
        assert formatter.loads(expected) == value


class TestRegistryScoping:
    def test_private_registry_is_isolated(self):
        registry = SerializationRegistry()

        class Local:
            def __init__(self):
                self.v = 1

        registry.register(Local, "scoped.Local")
        scoped = BinaryFormatter(registry)
        result = scoped.loads(scoped.dumps(Local()))
        assert result.v == 1
        # The default formatter does not know this class.
        with pytest.raises(UnknownTypeError):
            BinaryFormatter().dumps(Local())
