"""Property tests of the binary formatter's object path and columns.

Registered dataclasses (``Record``, ``Pair``) round-trip, and a damaged
payload raises a serialization error and nothing else.  The encoding
itself is pinned byte for byte by ``tests/unit/test_wire_golden.py``.
Also covered: ``processN`` argument columns and ``returnN`` result
columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import SerializationError
from repro.remoting.messages import ReturnBatch
from repro.serialization import BinaryFormatter, serializable
from repro.serialization.codec import (
    pack_columns,
    pack_result_column,
    unpack_columns,
    unpack_result_column,
)


@serializable(name="test.codecprops.Record")
@dataclass
class Record:
    count: int
    ratio: float
    label: str
    blob: bytes
    flag: bool
    payload: object = None


@serializable(name="test.codecprops.Pair")
@dataclass
class Pair:
    left: Record
    right: Record
    tags: list = field(default_factory=list)


fmt = BinaryFormatter()

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)

payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.tuples(children, children),
    ),
    max_leaves=12,
)

records = st.builds(
    Record,
    count=st.integers(),
    ratio=st.floats(allow_nan=False),
    label=st.text(max_size=40),
    blob=st.binary(max_size=40),
    flag=st.booleans(),
    payload=payloads,
)

pairs = st.builds(
    Pair,
    left=records,
    right=records,
    tags=st.lists(scalars, max_size=4),
)

record_values = st.one_of(records, pairs, st.lists(records, max_size=3))


@settings(max_examples=150, deadline=None)
@given(record_values)
def test_records_round_trip(value):
    assert fmt.loads(fmt.dumps(value)) == value


@settings(max_examples=60, deadline=None)
@given(records, st.data())
def test_corrupted_payloads_raise_serialization_errors(value, data):
    payload = bytearray(fmt.dumps(value))
    cut = data.draw(st.integers(min_value=0, max_value=len(payload)))
    flip = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    payload[flip] ^= data.draw(st.integers(min_value=1, max_value=255))
    try:
        fmt.loads(bytes(payload[:cut]))
    except SerializationError:
        pass  # the only acceptable failure mode
    # Any successful decode of a mutated payload is fine too (the flip may
    # have landed in a value byte) — the contract is "no raw exceptions".


# -- processN argument columns ------------------------------------------------

#: What one column holds: all ints (int64 edges and beyond), all floats,
#: all bools, or any scalar mix.
column_elements = st.sampled_from([
    st.integers(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-200, max_value=200),
    st.floats(allow_nan=False),
    st.booleans(),
    scalars,
])


@st.composite
def column_batches(draw):
    """``(rows, plan)``: a homogeneous batch and a plan for its arity."""
    arity = draw(st.integers(min_value=0, max_value=3))
    count = draw(st.integers(min_value=1, max_value=40))
    columns = [
        draw(st.lists(draw(column_elements), min_size=count, max_size=count))
        for _ in range(arity)
    ]
    kinds = st.sampled_from(["int", "float", None])
    plan = draw(st.none() | st.tuples(*[kinds] * arity))
    rows = [(tuple(column[i] for column in columns), {}) for i in range(count)]
    return rows, plan


@settings(max_examples=200, deadline=None)
@given(column_batches())
def test_columns_survive_the_wire_with_exact_types(batch):
    rows, plan = batch
    columns = pack_columns(rows, plan)
    decoded = unpack_columns(len(rows), fmt.loads(fmt.dumps(columns)))
    assert decoded == rows
    for (args, _kwargs), (expected, _) in zip(decoded, rows):
        assert [type(value) for value in args] == [
            type(value) for value in expected
        ]


# -- returnN reply aggregation ------------------------------------------------

result_slots = st.lists(
    st.one_of(
        st.floats(allow_nan=False),
        st.integers(),
        st.text(max_size=20),
        st.none(),
    ),
    max_size=16,
)

error_slots = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),
        st.sampled_from(["ValueError", "OverloadError", "KeyError"]),
        st.text(max_size=30),
        st.text(max_size=60),
    ),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(result_slots, error_slots)
def test_returnn_batches_round_trip(results, errors):
    batch = ReturnBatch(
        count=len(results),
        results=pack_result_column(results),
        errors=tuple(errors),
    )
    decoded = fmt.loads(fmt.dumps(batch))
    assert decoded.count == batch.count
    assert list(decoded.results) == list(batch.results)
    assert tuple(decoded.errors) == batch.errors


@settings(max_examples=150, deadline=None)
@given(result_slots)
def test_result_column_pack_unpack_is_the_identity(results):
    packed = pack_result_column(results)
    assert unpack_result_column(len(results), packed) == list(results)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=32))
def test_all_float_results_pack_to_a_double_column(values):
    import array

    packed = pack_result_column(list(values))
    assert isinstance(packed, array.array) and packed.typecode == "d"
    assert unpack_result_column(len(values), packed) == list(values)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=32))
def test_int_results_survive_the_wire_as_ints(values):
    import array

    packed = pack_result_column(list(values))
    if min(values) >= -(2**63) and max(values) < 2**63:
        assert isinstance(packed, array.array) and packed.typecode in "bhiq"
    else:
        assert packed == list(values)
    decoded = unpack_result_column(len(values), fmt.loads(fmt.dumps(packed)))
    assert decoded == list(values)
    assert all(type(value) is int for value in decoded)


def test_result_column_length_mismatch_is_a_serialization_error():
    with pytest.raises(SerializationError):
        unpack_result_column(3, [1.0, 2.0])
