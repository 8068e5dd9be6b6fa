"""Unit tests for the binary formatter's object path and the column
packing of ``processN`` aggregates (`repro.serialization.codec`).

The object encoding itself is pinned byte for byte by
``tests/unit/test_wire_golden.py``."""

from __future__ import annotations

import array
from dataclasses import dataclass, field

import pytest

from repro.errors import SerializationError, UnknownTypeError
from repro.serialization import (
    BinaryFormatter,
    SerializationRegistry,
    serializable,
)
from repro.serialization.codec import (
    method_column_plan,
    pack_columns,
    unpack_columns,
)


@serializable(name="test.codec.Sample")
@dataclass
class Sample:
    count: int
    ratio: float
    label: str
    blob: bytes = b""
    flag: bool = False
    payload: object = None


@serializable(name="test.codec.Nested")
@dataclass
class Nested:
    inner: Sample
    extras: list = field(default_factory=list)


class Unregistered:
    pass


@pytest.fixture
def fmt():
    return BinaryFormatter()


SAMPLES = [
    Sample(count=7, ratio=2.5, label="hello", blob=b"\x00\xff", flag=True),
    Sample(count=-(2**62), ratio=float("inf"), label="", payload=[1, {"k": 2}]),
    Sample(count=2**100, ratio=1.0, label="big int", flag=False),
    Nested(inner=Sample(1, 1.0, "in"), extras=[1, "two", (3.0,)]),
]


@pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
def test_wire_interop_both_directions(fmt, value):
    """Value to wire to value, and wire to value to the same wire."""
    data = fmt.dumps(value)
    assert fmt.loads(data) == value
    assert fmt.dumps(fmt.loads(data)) == data


def test_shared_objects_decode_shared(fmt):
    shared = Sample(1, 1.0, "shared")
    graph = [shared, shared, (shared, [shared])]
    decoded = fmt.loads(fmt.dumps(graph))
    assert decoded[0] is decoded[1]
    assert decoded[2][0] is decoded[0]
    assert decoded[2][1][0] is decoded[0]


def test_dumps_into_appends_to_existing_buffer(fmt):
    out = bytearray(b"HDR")
    fmt.dumps_into(out, Sample(1, 2.0, "x"))
    assert out[:3] == b"HDR"
    assert fmt.loads(memoryview(out)[3:]) == Sample(1, 2.0, "x")


def test_loads_accepts_memoryview_and_bytearray(fmt):
    payload = fmt.dumps(SAMPLES[0])
    assert fmt.loads(bytearray(payload)) == SAMPLES[0]
    assert fmt.loads(memoryview(payload)) == SAMPLES[0]


def test_truncated_payloads_raise_wire_errors(fmt):
    for value in SAMPLES:
        payload = fmt.dumps(value)
        for cut in range(len(payload)):
            with pytest.raises(SerializationError):
                fmt.loads(payload[:cut])


def test_unregistered_class_raises(fmt):
    with pytest.raises(UnknownTypeError):
        fmt.dumps(Unregistered())


def test_a_class_registered_after_a_failed_encode_encodes():
    # The registry works a class's spelled names out on first use; the
    # failed encode must not leave a stale entry behind.
    @dataclass
    class Late:
        n: int = 0

    registry = SerializationRegistry()
    wire = BinaryFormatter(registry)
    with pytest.raises(UnknownTypeError):
        wire.dumps(Late(1))
    registry.register(Late, "test.codec.Late")
    assert wire.loads(wire.dumps(Late(2))) == Late(2)


# -- columnar batch packing ---------------------------------------------------


class WithSignature:
    def step(self, x: float, n: int, anything):
        pass

    def varargs(self, *values: float):
        pass

    def kwonly(self, *, k: int = 0):
        pass


def test_method_column_plan_reads_annotations():
    assert method_column_plan(WithSignature.step) == ("float", "int", None)
    assert method_column_plan(WithSignature.varargs) is None
    assert method_column_plan(WithSignature.kwonly) is None
    assert method_column_plan(None) is None


def test_pack_columns_builds_float_blobs():
    batch = [((float(i), i, "s"), {}) for i in range(8)]
    columns = pack_columns(batch, method_column_plan(WithSignature.step))
    assert isinstance(columns[0], array.array)
    assert columns[0].typecode == "d"
    assert isinstance(columns[1], array.array)
    assert columns[1].typecode == "b"
    assert columns[1].tolist() == list(range(8))
    assert isinstance(columns[2], list)
    assert unpack_columns(8, columns) == batch


def test_pack_columns_verifies_floats_despite_plan():
    # The plan says float, but a caller passed an int: the column must stay
    # a list (packing into array('d') would silently coerce 1 -> 1.0).
    batch = [((1.0,), {}), ((2,), {})]
    columns = pack_columns(batch, ("float",))
    assert isinstance(columns[0], list)
    assert unpack_columns(2, columns) == batch


@pytest.mark.parametrize(
    "low, high, typecode",
    [
        (-128, 127, "b"),
        (-129, 0, "h"),
        (0, 128, "h"),
        (-(2**15), 2**15 - 1, "h"),
        (-(2**15) - 1, 0, "i"),
        (0, 2**15, "i"),
        (-(2**31), 2**31 - 1, "i"),
        (-(2**31) - 1, 0, "q"),
        (0, 2**31, "q"),
        (-(2**63), 2**63 - 1, "q"),
    ],
)
def test_pack_columns_picks_the_narrowest_int_typecode(low, high, typecode):
    batch = [((low,), {}), ((7,), {}), ((high,), {})]
    (column,) = pack_columns(batch)
    assert isinstance(column, array.array)
    assert column.typecode == typecode
    wire = BinaryFormatter()
    decoded = unpack_columns(3, wire.loads(wire.dumps((column,))))
    assert decoded == batch
    assert all(type(args[0]) is int for args, _kwargs in decoded)


@pytest.mark.parametrize("outside", [2**63, -(2**63) - 1])
def test_pack_columns_keeps_an_int_column_beyond_int64_a_list(outside):
    batch = [((1,), {}), ((outside,), {})]
    assert pack_columns(batch) == ([1, outside],)


@pytest.mark.parametrize(
    "values",
    [
        [True, False, True],  # bools are ints, but must arrive as bools
        [1, 2.5, 3],  # an int/float mix
        [1, True],
        [1, "a"],
        [1, None],
    ],
)
def test_pack_columns_keeps_bool_and_mixed_columns_lists(values):
    batch = [((value,), {}) for value in values]
    (column,) = pack_columns(batch)
    assert type(column) is list
    decoded = unpack_columns(len(values), (column,))
    assert [type(args[0]) for args, _kwargs in decoded] == [
        type(value) for value in values
    ]


def test_pack_columns_keeps_a_float_annotated_int_column_a_list():
    batch = [((1,), {}), ((2,), {})]
    columns = pack_columns(batch, ("float",))
    assert columns == ([1, 2],)
    assert type(columns[0]) is list


def test_pack_columns_keeps_an_int_annotated_float_column_a_list():
    batch = [((1.5,), {}), ((2.5,), {})]
    columns = pack_columns(batch, ("int",))
    assert columns == ([1.5, 2.5],)
    assert type(columns[0]) is list


def test_pack_columns_rejects_heterogeneous_batches():
    assert pack_columns([]) is None
    assert pack_columns([((1,), {"k": 1})]) is None
    assert pack_columns([((1,), {}), ((1, 2), {})]) is None


def test_pack_columns_zero_arg_batch():
    batch = [((), {}) for _ in range(5)]
    assert pack_columns(batch) == ()
    assert unpack_columns(5, ()) == batch
    wire = BinaryFormatter()
    assert unpack_columns(5, wire.loads(wire.dumps(pack_columns(batch)))) == batch


def test_unpack_columns_length_mismatch_raises():
    for count, columns in (
        (3, ([1, 2],)),
        # Ragged columns: zip alone would cut the batch to two calls.
        (2, [array.array("b", [1, 2, 3]), [4, 5]]),
    ):
        with pytest.raises(SerializationError, match="mismatch"):
            unpack_columns(count, columns)


def test_columnar_aggregate_is_materially_smaller(fmt):
    # The acceptance-style size check: a 64-call aggregate in columnar form
    # must encode >=1.5x smaller than the legacy [(args, kwargs), ...] batch.
    batch = [((float(i), i), {}) for i in range(64)]
    legacy = fmt.dumps(("step", batch))
    columns = pack_columns(batch)
    columnar = fmt.dumps(("step", 64, columns))
    assert len(legacy) / len(columnar) >= 1.5
