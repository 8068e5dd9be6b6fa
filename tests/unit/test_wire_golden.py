"""Golden wire bytes: the binary format, frozen.

Every tag byte, the varint and bigint boundaries, graph identity (a
shared sub-object and a list cycle), a registered object on the object
path, the positional call record, the asynchronous ``enqueue_batch``
requests and the reply messages (registered objects on that same object
path) are pinned here as exact byte strings.  A change to the encoder or decoder that moves one byte
fails these tests, whichever class produced it, so old and new peers
keep speaking the same format.

``array.array`` rows carry the host's native byte order (the format
copies the array's buffer); the fixtures are little-endian.
"""

from __future__ import annotations

import array

import numpy as np
import pytest

import repro.serialization
from repro.remoting.messages import (
    CallMessage,
    RemoteErrorInfo,
    ReturnBatch,
    ReturnMessage,
)
from repro.serialization import serializable
from repro.serialization.codec import pack_columns


@serializable(name="test.golden.Point")
class Point:
    """A registered class: it crosses the wire on the object path."""

    def __init__(self, x=0, y=0.0):
        self.x = x
        self.y = y

    def __eq__(self, other):
        return type(other) is Point and (self.x, self.y) == (other.x, other.y)


#: (id, value, exact encoding).  Values compare with ``==`` and ``type``.
GOLDEN = [
    ("none", None, b"N"),
    ("true", True, b"T"),
    ("false", False, b"F"),
    ("int", 300, b"i\xd8\x04"),
    ("negative-int", -3, b"i\x05"),
    ("int64-max", 2**63 - 1, b"i\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01"),
    ("int64-min", -(2**63), b"i\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"),
    ("bigint", 2**63, b"l\t\x00\x80\x00\x00\x00\x00\x00\x00\x00"),
    ("negative-bigint", -(2**63) - 1, b"l\t\xff\x7f\xff\xff\xff\xff\xff\xff\xff"),
    ("float", 1.5, b"d?\xf8\x00\x00\x00\x00\x00\x00"),
    ("complex", complex(1.0, -2.0),
     b"c?\xf0\x00\x00\x00\x00\x00\x00\xc0\x00\x00\x00\x00\x00\x00\x00"),
    ("str", "héllo", b"s\x06h\xc3\xa9llo"),
    ("bytes", b"\x00\xff", b"b\x02\x00\xff"),
    ("bytearray", bytearray(b"ab"), b"y\x02ab"),
    ("list", [1, "a"], b"L\x02i\x02s\x01a"),
    ("tuple", (1, 2.5), b"U\x02i\x02d@\x04\x00\x00\x00\x00\x00\x00"),
    ("dict", {"k": None}, b"D\x01s\x01kN"),
    ("set", {7}, b"S\x01i\x0e"),
    ("frozenset", frozenset({7}), b"z\x01i\x0e"),
    ("array", array.array("d", [1.0, -2.0]),
     b"Ad\x10\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00\xc0"),
    ("object", Point(3, 0.5),
     b"O\x11test.golden.Point\x02\x01xi\x06\x01yd?\xe0\x00\x00\x00\x00\x00\x00"),
    # The call record: tag C, then uri, method, args, kwargs (N when
    # empty) and the one_way byte, by position.
    ("call-message",
     CallMessage(uri="tcp://h:1/o", method="m", args=(1, "x"),
                 kwargs={"k": 2.0}),
     b"Cs\x0btcp://h:1/os\x01mU\x02i\x02s\x01xD\x01s\x01kd@\x00\x00\x00"
     b"\x00\x00\x00\x00F"),
    ("call-empty-kwargs",
     CallMessage(uri="io", method="invoke", args=("count", (), {})),
     b"Cs\x02ios\x06invokeU\x03s\x05countU\x00D\x00NF"),
    ("call-one-way",
     CallMessage(uri="io", method="ping", one_way=True),
     b"Cs\x02ios\x04pingU\x00NT"),
    ("int-columns",
     CallMessage(uri="io", method="enqueue_columns",
                 args=("tick", 3, [array.array("b", [0, 1, -1]),
                                   array.array("h", [300, -2, 7])])),
     b"Cs\x02ios\x0fenqueue_columnsU\x03s\x04ticki\x06L\x02Ab\x03\x00\x01"
     b"\xffAh\x06,\x01\xfe\xff\x07\x00NF"),
    # Asynchronous work as the PO sends it: one enqueue_batch request of
    # (method, count, columns | None, rows | None) entries.
    ("entry-columns",
     CallMessage(uri="io", method="enqueue_batch",
                 args=([("tick", 3, [array.array("b", [0, 1, -1]),
                                     array.array("h", [300, -2, 7])],
                         None)],)),
     b"Cs\x02ios\renqueue_batchU\x01L\x01U\x04s\x04ticki\x06L\x02Ab\x03"
     b"\x00\x01\xffAh\x06,\x01\xfe\xff\x07\x00NNF"),
    ("entry-single",
     CallMessage(uri="io", method="enqueue_batch",
                 args=([("mark", 1, [array.array("b", [5])], None)],)),
     b"Cs\x02ios\renqueue_batchU\x01L\x01U\x04s\x04marki\x02L\x01Ab\x01"
     b"\x05NNF"),
    ("entry-single-rows",
     CallMessage(uri="io", method="enqueue_batch",
                 args=([("mark", 1, None, [((), {"n": 5})])],)),
     b"Cs\x02ios\renqueue_batchU\x01L\x01U\x04s\x04marki\x02NL\x01U\x02"
     b"U\x00D\x01s\x01ni\nNF"),
    ("return-batch",
     ReturnMessage(value=ReturnBatch(
         count=2, results=array.array("d", [1.0, 2.0]),
         errors=((1, "E", "m", ""),))),
     b"O\x14parc.remoting.Return\x02\x05valueO\x15parc.remoting.ReturnN"
     b"\x03\x05counti\x04\x07resultsAd\x10\x00\x00\x00\x00\x00\x00\xf0?"
     b"\x00\x00\x00\x00\x00\x00\x00@\x06errorsU\x01U\x04i\x02s\x01Es\x01m"
     b"s\x00\x05errorN"),
    ("return-error",
     ReturnMessage(error=RemoteErrorInfo("ValueError", "bad")),
     b"O\x14parc.remoting.Return\x02\x05valueN\x05errorO\x17"
     b"parc.remoting.ErrorInfo\x03\ttype_names\nValueError\x07messages\x03"
     b"bad\x0etraceback_texts\x00"),
]

SHARED_WIRE = b"L\x02L\x01i\x02R\x01"
CYCLE_WIRE = b"L\x01R\x00"
NDARRAY_WIRE = (
    b"M\x03<i4\x02\x02\x03\x18\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00"
    b"\x00\x03\x00\x00\x00\x04\x00\x00\x00\x05\x00\x00\x00"
)

ALL_TAGS = set(b"NTFildcsbyLUDSzAMORC")


@pytest.fixture(params=["BinaryFormatter", "FastBinaryFormatter"])
def formatter(request):
    return getattr(repro.serialization, request.param)()


_ids = [case[0] for case in GOLDEN]


@pytest.mark.parametrize("_id, value, wire", GOLDEN, ids=_ids)
def test_dumps_matches_golden(formatter, _id, value, wire):
    assert formatter.dumps(value) == wire


@pytest.mark.parametrize("_id, value, wire", GOLDEN, ids=_ids)
def test_loads_matches_golden(formatter, _id, value, wire):
    decoded = formatter.loads(wire)
    assert decoded == value
    assert type(decoded) is type(value)


class _Mark:
    def tick(self, a: int, b: int):
        pass

    def mark(self, n: int):
        pass


def test_entry_vectors_are_what_the_sender_builds():
    from repro.core.proxy_object import RemoteGrain

    sent = []

    class Wire:
        def _parc_invoke(self, method, args, kwargs):
            sent.append(CallMessage(uri="io", method=method, args=args))

        def dispose(self):
            pass

    grain = RemoteGrain(Wire(), max_calls=3, flush_after_s=30.0)
    grain.columnar, grain.impl_class = True, _Mark
    for a, b in ((0, 300), (1, -2), (-1, 7)):
        grain.post("tick", (a, b), {})
    grain.post("mark", (5,), {})
    grain.sync_outbox()
    grain.post("mark", (), {"n": 5})
    grain.dispose()
    golden = {_id: value for _id, value, _wire in GOLDEN}
    assert sent == [
        golden["entry-columns"],
        golden["entry-single"],
        golden["entry-single-rows"],
    ]


def test_int_columns_vector_is_what_pack_columns_builds():
    value = {_id: value for _id, value, _wire in GOLDEN}["int-columns"]
    rows = [((0, 300), {}), ((1, -2), {}), ((-1, 7), {})]
    columns = list(pack_columns(rows))
    assert [column.typecode for column in columns] == ["b", "h"]
    assert columns == value.args[2]


def test_shared_sub_object_is_one_back_reference(formatter):
    shared = [1]
    assert formatter.dumps([shared, shared]) == SHARED_WIRE
    decoded = formatter.loads(SHARED_WIRE)
    assert decoded == [[1], [1]]
    assert decoded[0] is decoded[1]


def test_list_cycle(formatter):
    cycle: list = []
    cycle.append(cycle)
    assert formatter.dumps(cycle) == CYCLE_WIRE
    decoded = formatter.loads(CYCLE_WIRE)
    assert decoded[0] is decoded


def test_ndarray(formatter):
    value = np.arange(6, dtype="<i4").reshape(2, 3)
    assert formatter.dumps(value) == NDARRAY_WIRE
    decoded = formatter.loads(NDARRAY_WIRE)
    assert decoded.dtype == value.dtype and decoded.shape == (2, 3)
    assert np.array_equal(decoded, value)


def test_every_tag_is_pinned():
    wires = [wire for _id, _value, wire in GOLDEN]
    wires += [SHARED_WIRE, CYCLE_WIRE, NDARRAY_WIRE]
    back_references = {SHARED_WIRE[-2], CYCLE_WIRE[-2]}
    assert back_references == set(b"R")
    assert {wire[0] for wire in wires} | back_references == ALL_TAGS
