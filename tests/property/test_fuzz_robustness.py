"""Fuzz robustness: malformed wire input must fail loudly, never crash.

A remoting endpoint decodes attacker-controllable bytes; the contract is
that any malformed input raises a library error
(:class:`~repro.errors.ParcError` subclass), never an unhandled
``IndexError``/``UnicodeDecodeError``/``MemoryError``-style surprise, and
never executes user code.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import ParcError, WireFormatError
from repro.mpi import INT, UnpackBuffer
from repro.remoting.messages import CallMessage
from repro.serialization import BinaryFormatter, SoapFormatter, serializable

binary = BinaryFormatter()
soap = SoapFormatter()

#: A call record (tag C) whose last byte is its ``one_way`` flag.
CALL_RECORD = binary.dumps(
    CallMessage(uri="io", method="m", args=(1, "x"), kwargs={"k": 2})
)


@serializable(name="test.fuzz.Point")
@dataclass
class Point:
    x: int
    y: int = 0


@serializable(name="test.fuzz.Slim")
class Slim:
    __slots__ = ("kept",)


def spelled(name):
    """*name* as a record spells it: a one-byte length (under 128), utf-8."""
    return bytes((len(name),)) + name.encode()


def object_record(wire_name, fields):
    """A binary object record of *wire_name* with each field set to 1."""
    body = b"".join(spelled(field) + binary.dumps(1) for field in fields)
    return b"O" + spelled(wire_name) + bytes((len(fields),)) + body


class TestBinaryFuzz:
    @given(st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    @example(b"")
    @example(b"O")
    @example(b"L\xff\xff\xff\xff\x0f")
    @example(b"R\x00")
    @example(b"L\x01" * 5000 + b"N")  # nested deeper than Python recurses
    def test_random_bytes_never_crash(self, data):
        try:
            binary.loads(data)
        except ParcError:
            pass  # the only acceptable failure mode

    @given(st.binary(max_size=128), st.integers(min_value=0, max_value=120))
    @settings(max_examples=200, deadline=None)
    def test_truncated_valid_payloads(self, raw, cut):
        valid = binary.dumps(["seed", raw, {"k": 1}])
        mutated = valid[: min(cut, len(valid))]
        if mutated == valid:
            return
        try:
            binary.loads(mutated)
        except ParcError:
            pass

    @given(
        st.binary(max_size=128),
        st.integers(min_value=0, max_value=127),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=200, deadline=None)
    def test_bitflipped_valid_payloads(self, raw, position, replacement):
        valid = bytearray(binary.dumps([raw, [1, 2.5, None]]))
        if not valid:
            return
        valid[position % len(valid)] = replacement
        try:
            binary.loads(bytes(valid))
        except ParcError:
            pass


class TestCallRecordFuzz:
    """A damaged call record is a wire error, and only that."""

    @given(st.integers(min_value=0, max_value=len(CALL_RECORD) - 1))
    @settings(max_examples=100, deadline=None)
    @example(len(CALL_RECORD) - 1)  # truncated: the one_way byte is gone
    @example(1)  # truncated: only the tag is left
    def test_truncated_call_record(self, cut):
        with pytest.raises(WireFormatError):
            binary.loads(CALL_RECORD[:cut])

    @given(st.binary(min_size=1, max_size=9))
    @settings(max_examples=200, deadline=None)
    @example(b"N")  # a None where the flag belongs
    @example(b"i\x02")  # an int where the flag belongs
    def test_call_record_with_a_non_bool_one_way(self, flag):
        if flag in (b"T", b"F"):
            return
        with pytest.raises(WireFormatError):
            binary.loads(CALL_RECORD[:-1] + flag)


class TestObjectRecordFuzz:
    """A record that does not fit its class is a wire error, and only that:
    a dataclass record carries every field, a slots record only slots."""

    @given(st.lists(st.sampled_from(["x", "y", "z"]), max_size=3, unique=True))
    @settings(max_examples=50, deadline=None)
    @example(["x"])  # y is missing, though it has a default
    def test_dataclass_record_carries_every_field(self, fields):
        record = object_record("test.fuzz.Point", fields)
        if {"x", "y"} <= set(fields):
            assert binary.loads(record).x == 1
        else:
            with pytest.raises(WireFormatError):
                binary.loads(record)

    @given(st.lists(st.sampled_from(["kept", "extra"]), max_size=2, unique=True))
    @settings(max_examples=20, deadline=None)
    @example(["kept", "extra"])  # a field the class cannot hold
    def test_slots_record_names_only_slots(self, fields):
        record = object_record("test.fuzz.Slim", fields)
        if "extra" in fields:
            with pytest.raises(WireFormatError):
                binary.loads(record)
        else:
            assert isinstance(binary.loads(record), Slim)


class TestSoapFuzz:
    @given(st.binary(max_size=256))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_never_crash(self, data):
        try:
            soap.loads(data)
        except ParcError:
            pass

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    @example('<v t="list" n="9999999">')
    @example('<v t="obj" c="os.system" n="0"></v>')
    def test_random_text_in_envelope_never_crashes(self, body):
        payload = (
            '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/'
            f'envelope/"><soap:Body>{body}</soap:Body></soap:Envelope>'
        ).encode("utf-8")
        try:
            soap.loads(payload)
        except ParcError:
            pass

    def test_unregistered_class_name_never_instantiates(self):
        """Decoding must not import/execute by name (no pickle behaviour)."""
        payload = (
            '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/'
            'envelope/"><soap:Body><v t="obj" c="subprocess.Popen" n="0">'
            "</v></soap:Body></soap:Envelope>"
        ).encode()
        try:
            soap.loads(payload)
            raise AssertionError("should have rejected unknown class")
        except ParcError as exc:
            assert "subprocess.Popen" in str(exc)


class TestUnpackFuzz:
    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_random_pack_buffers(self, data):
        try:
            unpacker = UnpackBuffer(data)
            while unpacker.remaining:
                unpacker.unpack(INT)
        except ParcError:
            pass


class TestFaultyChannelFuzz:
    """Chaos contract: a faulted call errors as a ParcError or succeeds
    with the exact payload — never hangs, never yields corrupt data."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_seed_completes_or_raises_parc_error(self, seed):
        from repro.channels import LoopbackChannel
        from repro.chaos import FaultyChannel, plan_from_percentages

        plan = plan_from_percentages(
            seed=seed,
            connect_refused=0.05,
            send_drop=0.05,
            latency=0.05,
            recv_drop=0.05,
            disconnect=0.05,
            truncate=0.05,
            latency_s=(0.0, 0.001),
        )
        channel = FaultyChannel(LoopbackChannel(), plan=plan)
        binding = channel.listen(
            "auto",
            lambda path, body, headers: binary.dumps(
                ["ok", binary.loads(body)]
            ),
        )
        try:
            for value in range(30):
                request = binary.dumps(value)
                try:
                    raw = channel.call(binding.authority, "echo", request)
                    decoded = binary.loads(raw)
                except ParcError:
                    continue  # injected fault or truncation surfaced loudly
                assert decoded == ["ok", value], "corrupt round-trip"
        finally:
            channel.close()

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        payload=st.binary(min_size=1, max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncation_always_decodes_to_error(self, seed, payload):
        from repro.channels import LoopbackChannel
        from repro.chaos import FaultyChannel, plan_from_percentages

        plan = plan_from_percentages(seed=seed, truncate=1.0)
        channel = FaultyChannel(LoopbackChannel(), plan=plan)
        binding = channel.listen(
            "auto", lambda path, body, headers: binary.dumps([body])
        )
        try:
            raw = channel.call(binding.authority, "echo", payload)
            try:
                decoded = binary.loads(raw)
            except ParcError:
                return  # truncated frame rejected by the formatter: good
            # A truncation that still decodes must at least not fabricate
            # a different-but-valid answer for the caller's payload.
            assert decoded != [payload], "truncation silently dropped"
        finally:
            channel.close()
