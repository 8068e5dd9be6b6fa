"""The one-version decode rule, shared by the binary and SOAP formatters.

Every node of a cluster runs the driver's source tree, so a record on the
wire must fit the class it names: a dataclass record carries every field,
and a ``__slots__`` record names only slots.  Anything else is a
:class:`~repro.errors.WireFormatError`.  A class with ``__setstate__``
owns its state, and a ``__dict__`` instance keeps the extra attributes it
was sent.

A mismatched record is built the way a peer with other code would send
it: a sender registry binds the same wire name to a class of another
shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import WireFormatError
from repro.serialization import BinaryFormatter, SerializationRegistry, SoapFormatter


@pytest.fixture(params=[BinaryFormatter, SoapFormatter], ids=["binary", "soap"])
def formatter(request):
    """A formatter class; each test builds it over its own registry."""
    return request.param


def sent_as(formatter, wire_name, sender, receiver):
    """*sender* encoded under *wire_name*, decoded as *receiver*."""
    out, into = SerializationRegistry(), SerializationRegistry()
    out.register(type(sender), wire_name)
    into.register(receiver, wire_name)
    return formatter(into).loads(formatter(out).dumps(sender))


@dataclass
class Point:
    x: int
    y: int = 0  # a default does not stand in for a field the record lacks


class Slim:
    __slots__ = ("kept",)


class Loose:
    pass


def test_a_dataclass_record_lacking_a_field_is_a_wire_error(formatter):
    sender = Loose()
    sender.x = 1
    with pytest.raises(WireFormatError, match="y"):
        sent_as(formatter, "one.Point", sender, Point)


def test_a_slots_record_with_an_unknown_field_is_a_wire_error(formatter):
    sender = Loose()
    sender.kept = "yes"
    sender.added = "surprise"
    with pytest.raises(WireFormatError, match="added"):
        sent_as(formatter, "one.Slim", sender, Slim)


def test_a_slots_record_that_fits_decodes(formatter):
    sender = Loose()
    sender.kept = "yes"
    assert sent_as(formatter, "one.Slim", sender, Slim).kept == "yes"


def test_a_dataclass_with_an_extra_attribute_round_trips(formatter):
    registry = SerializationRegistry()
    registry.register(Point, "one.Point")
    fmt = formatter(registry)
    point = Point(1, 2)
    point.note = "extra"
    decoded = fmt.loads(fmt.dumps(point))
    assert decoded == point
    assert decoded.note == "extra"


def test_a_dict_class_keeps_unknown_fields(formatter):
    sender = Loose()
    sender.extra = 42
    assert sent_as(formatter, "one.Roomy", sender, Loose).extra == 42


def test_setstate_owns_its_state(formatter):
    @dataclass
    class Counted:
        total: int = 0

        def __setstate__(self, state):
            self.total = sum(state.values())

    sender = Loose()
    sender.a, sender.b = 2, 3
    assert sent_as(formatter, "one.Counted", sender, Counted).total == 5
