"""Property tests: compiled codecs vs the generic object path.

The formatter runs a compiled codec for every class in its
:class:`CodecRegistry`.  Here ``fast`` carries codecs for the test classes
and ``generic`` is the same formatter with an empty registry, so every
value takes the generic object path.  The two must agree byte for byte and
decode each other's output; the format itself is pinned by
``tests/unit/test_wire_golden.py``.  Also covered: unregistered classes
and corrupted payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import SerializationError, UnknownTypeError
from repro.remoting.messages import ReturnBatch
from repro.serialization import BinaryFormatter, CodecRegistry, serializable
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


class NeverRegistered:
    pass


_codecs = CodecRegistry()
_codecs.register(Record)
_codecs.register(Pair)

generic = BinaryFormatter(codecs=CodecRegistry())
fast = BinaryFormatter(codecs=_codecs)

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

compiled_values = st.one_of(records, pairs, st.lists(records, max_size=3))


@settings(max_examples=150, deadline=None)
@given(compiled_values)
def test_compiled_and_generic_encodings_are_byte_identical(value):
    assert fast.dumps(value) == generic.dumps(value)


@settings(max_examples=150, deadline=None)
@given(compiled_values)
def test_old_encoder_new_decoder_roundtrip(value):
    assert fast.loads(generic.dumps(value)) == value


@settings(max_examples=150, deadline=None)
@given(compiled_values)
def test_new_encoder_old_decoder_roundtrip(value):
    assert generic.loads(fast.dumps(value)) == value


@settings(max_examples=100, deadline=None)
@given(payloads)
def test_generic_values_stay_byte_identical_without_codecs(value):
    assert fast.dumps(value) == generic.dumps(value)
    assert fast.loads(generic.dumps(value)) == value


@settings(max_examples=60, deadline=None)
@given(records, st.data())
def test_corrupted_payloads_raise_serialization_errors(value, data):
    payload = bytearray(fast.dumps(value))
    cut = data.draw(st.integers(min_value=0, max_value=len(payload)))
    flip = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    payload[flip] ^= data.draw(st.integers(min_value=1, max_value=255))
    try:
        fast.loads(bytes(payload[:cut]))
    except SerializationError:
        pass  # the only acceptable failure mode
    # Any successful decode of a mutated payload is fine too (the flip may
    # have landed in a value byte) — the contract is "no raw exceptions".


def test_unregistered_class_fallback_matches_generic():
    with pytest.raises(UnknownTypeError):
        generic.dumps(NeverRegistered())
    with pytest.raises(UnknownTypeError):
        fast.dumps(NeverRegistered())


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
    decoded = unpack_columns(len(rows), fast.loads(fast.dumps(columns)))
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
def test_returnn_batches_are_byte_identical_across_formatters(results, errors):
    """A ReturnBatch travels the wire identically compiled or generic.

    This is the reply-side interop guarantee: a batched reply decodes on
    any peer whether or not it compiled ``ReturnBatch``, so the returnN
    negotiation only needs to decide *whether* to batch, never how to
    encode it.
    """
    batch = ReturnBatch(
        count=len(results),
        results=pack_result_column(results),
        errors=tuple(errors),
    )
    fast_bytes = fast.dumps(batch)
    assert fast_bytes == generic.dumps(batch)
    for decoder in (fast, generic):
        decoded = decoder.loads(fast_bytes)
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
    decoded = unpack_result_column(len(values), fast.loads(fast.dumps(packed)))
    assert decoded == list(values)
    assert all(type(value) is int for value in decoded)


def test_result_column_length_mismatch_is_a_serialization_error():
    with pytest.raises(SerializationError):
        unpack_result_column(3, [1.0, 2.0])
