"""Unit tests for the serialization class registry and surrogates."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import SerializationError, UnknownTypeError
from repro.serialization import BinaryFormatter, SerializationRegistry
from repro.serialization.registry import Surrogate, serializable


class TestRegistry:
    def test_register_and_lookup(self):
        registry = SerializationRegistry()

        class A:
            pass

        registry.register(A, "test.A")
        assert registry.wire_name_of(A) == "test.A"
        assert registry.class_of("test.A") is A
        assert A in registry
        assert len(registry) == 1

    def test_default_wire_name_is_qualified(self):
        registry = SerializationRegistry()

        class B:
            pass

        registry.register(B)
        name = registry.wire_name_of(B)
        assert name.endswith("B")
        assert "." in name

    def test_reregistration_same_pair_is_idempotent(self):
        registry = SerializationRegistry()

        class C:
            pass

        registry.register(C, "test.C")
        registry.register(C, "test.C")
        assert len(registry) == 1

    def test_name_collision_rejected(self):
        registry = SerializationRegistry()

        class D1:
            pass

        class D2:
            pass

        registry.register(D1, "test.D")
        with pytest.raises(SerializationError):
            registry.register(D2, "test.D")

    def test_unknown_class_error_mentions_decorator(self):
        registry = SerializationRegistry()

        class E:
            pass

        with pytest.raises(UnknownTypeError, match="serializable"):
            registry.wire_name_of(E)

    def test_unknown_wire_name(self):
        registry = SerializationRegistry()
        with pytest.raises(UnknownTypeError):
            registry.class_of("nowhere.Nothing")

    def test_iteration(self):
        registry = SerializationRegistry()

        class F:
            pass

        registry.register(F, "test.F")
        assert dict(iter(registry)) == {"test.F": F}


class TestStateExtraction:
    def test_plain_object_uses_dict(self):
        registry = SerializationRegistry()

        class G:
            def __init__(self):
                self.a = 1
                self.b = "two"

        registry.register(G)
        assert registry.state_of(G()) == {"a": 1, "b": "two"}

    def test_dataclass_fields_shallow(self):
        registry = SerializationRegistry()

        @dataclass
        class H:
            shared: list

        registry.register(H)
        shared = [1]
        state = registry.state_of(H(shared))
        assert state["shared"] is shared  # shallow, not copied

    def test_slots_without_getstate(self):
        registry = SerializationRegistry()

        class NoDict:
            __slots__ = ("x",)

        registry.register(NoDict)
        instance = NoDict()
        instance.x = 1
        # object.__getstate__ (3.11+) covers slots; state should hold x.
        state = registry.state_of(instance)
        assert state == {"x": 1} or state == {}

    def test_bad_getstate_rejected(self):
        registry = SerializationRegistry()

        class Bad:
            def __getstate__(self):
                return ["not", "a", "dict"]

        registry.register(Bad)
        with pytest.raises(SerializationError):
            registry.state_of(Bad())

    def test_restore_state_sets_attributes(self):
        registry = SerializationRegistry()

        class I1:
            pass

        registry.register(I1, "test.I1")
        obj = registry.new_instance("test.I1")
        registry.restore_state(obj, {"x": 5})
        assert obj.x == 5


class TestSerializableDecorator:
    def test_decorator_plain(self):
        @serializable
        class J1:
            pass

        formatter = BinaryFormatter()
        assert isinstance(formatter.loads(formatter.dumps(J1())), J1)

    def test_decorator_with_name(self):
        @serializable(name="test.registry.J2")
        class J2:
            pass

        from repro.serialization import default_registry

        assert default_registry.class_of("test.registry.J2") is J2


class _UpperSurrogate(Surrogate):
    """Test surrogate: encodes a marker type as its uppercase text."""

    wire_name = "test.registry.Upper"

    def applies_to(self, obj):
        return isinstance(obj, _Marked)

    def encode(self, obj):
        return {"text": obj.text.upper()}

    def decode(self, state):
        return state["text"]


class _Marked:
    def __init__(self, text):
        self.text = text


class TestSurrogates:
    def test_surrogate_intercepts_encoding(self):
        registry = SerializationRegistry()
        registry.register_surrogate(_UpperSurrogate())
        formatter = BinaryFormatter(registry)
        assert formatter.loads(formatter.dumps(_Marked("abc"))) == "ABC"

    def test_surrogate_applies_inside_containers(self):
        registry = SerializationRegistry()
        registry.register_surrogate(_UpperSurrogate())
        formatter = BinaryFormatter(registry)
        result = formatter.loads(formatter.dumps({"k": [_Marked("x")]}))
        assert result == {"k": ["X"]}

    def test_duplicate_surrogate_name_rejected(self):
        registry = SerializationRegistry()
        registry.register_surrogate(_UpperSurrogate())
        with pytest.raises(SerializationError):
            registry.register_surrogate(_UpperSurrogate())

    def test_same_instance_idempotent(self):
        registry = SerializationRegistry()
        surrogate = _UpperSurrogate()
        registry.register_surrogate(surrogate)
        registry.register_surrogate(surrogate)
        assert registry.surrogate_by_name("test.registry.Upper") is surrogate

    def test_surrogate_name_cannot_shadow_class(self):
        registry = SerializationRegistry()

        class K:
            pass

        registry.register(K, "test.registry.Upper")
        with pytest.raises(SerializationError):
            registry.register_surrogate(_UpperSurrogate())

    def test_class_name_cannot_shadow_surrogate(self):
        registry = SerializationRegistry()

        class K:
            pass

        registry.register_surrogate(_UpperSurrogate())
        with pytest.raises(SerializationError, match="surrogate"):
            registry.register(K, "test.registry.Upper")

    def test_surrogate_is_asked_only_for_the_types_it_claims(self):
        asked = []

        class Claiming(_UpperSurrogate):
            claims = (_Marked,)

            def applies_to(self, obj):
                asked.append(type(obj))
                return super().applies_to(obj)

        class Other:
            pass

        registry = SerializationRegistry()
        registry.register(Other, "test.registry.Other")
        registry.register_surrogate(Claiming())
        formatter = BinaryFormatter(registry)
        decoded = formatter.loads(formatter.dumps([Other(), _Marked("a")]))
        assert isinstance(decoded[0], Other) and decoded[1] == "A"
        assert asked == [_Marked]

    def test_applies_to_defaults_to_the_claimed_types(self):
        class ByClaims(Surrogate):
            wire_name = "test.registry.ByClaims"
            claims = (_Marked,)

            def encode(self, obj):
                return {"text": obj.text}

            def decode(self, state):
                return state["text"]

        surrogate = ByClaims()
        assert surrogate.applies_to(_Marked("a"))
        assert not surrogate.applies_to("a")
        registry = SerializationRegistry()
        registry.register_surrogate(surrogate)
        formatter = BinaryFormatter(registry)
        assert formatter.loads(formatter.dumps([_Marked("a")])) == ["a"]

    def test_a_surrogate_registered_after_an_encode_applies(self):
        registry = SerializationRegistry()
        formatter = BinaryFormatter(registry)
        with pytest.raises(SerializationError):
            formatter.dumps(_Marked("a"))
        registry.register_surrogate(_UpperSurrogate())
        assert formatter.loads(formatter.dumps(_Marked("a"))) == "A"

    def test_surrogate_lookup_miss(self):
        registry = SerializationRegistry()
        assert registry.surrogate_for(object()) is None
        assert registry.surrogate_by_name("nope") is None
