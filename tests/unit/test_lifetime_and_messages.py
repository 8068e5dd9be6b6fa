"""Unit tests for lease bookkeeping and the remoting wire messages."""

from __future__ import annotations

import pytest

from repro.perfmodel import VirtualClock
from repro.remoting.lifetime import DEFAULT_TTL_SECONDS, Lease, LeaseManager
from repro.remoting.messages import CallMessage, RemoteErrorInfo, ReturnMessage
from repro.serialization import BinaryFormatter, SoapFormatter


class TestLease:
    def test_finite_lease_expires(self):
        lease = Lease(path="p", ttl=10.0, expires_at=10.0)
        assert not lease.expired(9.9)
        assert lease.expired(10.1)

    def test_renew_extends(self):
        lease = Lease(path="p", ttl=10.0, expires_at=10.0)
        lease.renew(now=8.0)
        assert lease.expires_at == 18.0

    def test_renew_never_shortens(self):
        lease = Lease(path="p", ttl=10.0, expires_at=50.0)
        lease.renew(now=5.0)
        assert lease.expires_at == 50.0

    def test_infinite_lease(self):
        lease = Lease(path="p", ttl=float("inf"), expires_at=float("inf"))
        assert lease.is_infinite
        assert not lease.expired(1e18)
        lease.renew(now=0.0)  # no-op, no overflow


class CountingClock(VirtualClock):
    """The manager's clock seam, counting its reads."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    def now(self):
        self.reads += 1
        return super().now()


class TestLeaseManager:
    def test_register_is_idempotent(self):
        clock = VirtualClock()
        manager = LeaseManager(clock=clock)
        first = manager.register("a", ttl=5.0)
        second = manager.register("a", ttl=99.0)  # ignored: already leased
        assert first is second
        assert first.ttl == 5.0

    def test_expiry_and_drop(self):
        clock = VirtualClock()
        manager = LeaseManager(clock=clock)
        manager.register("a", ttl=5.0)
        manager.register("b", ttl=50.0)
        clock.advance(10.0)
        assert manager.expired_paths() == ["a"]
        manager.drop("a")
        assert manager.expired_paths() == []
        assert len(manager) == 1

    def test_renew_unknown_path_ignored(self):
        manager = LeaseManager(clock=VirtualClock())
        manager.renew("ghost")  # must not raise

    def test_activity_keeps_object_alive(self):
        clock = VirtualClock()
        manager = LeaseManager(clock=clock)
        manager.register("busy", ttl=10.0)
        for _ in range(5):
            clock.advance(8.0)
            manager.renew("busy")
        assert manager.expired_paths() == []
        clock.advance(11.0)
        assert manager.expired_paths() == ["busy"]

    def test_calls_keep_a_lease_alive_between_sparse_checks(self):
        clock = CountingClock()
        manager = LeaseManager(clock=clock)
        manager.register("busy", ttl=10.0)
        for _ in range(5):  # a call every 6 s, no check for 30 s
            clock.advance(6.0)
            manager.renew("busy")
        assert manager.expired_paths() == []
        clock.advance(10.5)
        assert manager.expired_paths() == ["busy"]

    def test_a_call_never_shortens_a_lease(self):
        clock = CountingClock()
        manager = LeaseManager(clock=clock)
        lease = manager.register("long", ttl=10.0)
        lease.renew(now=100.0)  # extended well past one ttl
        clock.advance(20.0)
        manager.renew("long")
        assert manager.expired_paths() == []
        assert lease.expires_at == 110.0

    def test_renew_reads_no_clock(self):
        clock = CountingClock()
        manager = LeaseManager(clock=clock)
        manager.register("hot", ttl=10.0)
        reads = clock.reads
        for _ in range(100):
            manager.renew("hot")
        assert clock.reads == reads

    def test_default_ttl_matches_dotnet(self):
        assert DEFAULT_TTL_SECONDS == 300.0

    def test_lease_of(self):
        manager = LeaseManager(clock=VirtualClock())
        manager.register("x", ttl=1.0)
        assert manager.lease_of("x").path == "x"
        assert manager.lease_of("y") is None


class TestWireMessages:
    def test_call_message_normalizes_list_args(self):
        message = CallMessage(uri="u", method="m", args=[1, 2])
        assert message.args == (1, 2)

    def test_call_message_roundtrips_both_formatters(self):
        message = CallMessage(
            uri="obj/1", method="work", args=(1, "x"), kwargs={"k": [2]},
            one_way=True,
        )
        for formatter in (BinaryFormatter(), SoapFormatter()):
            decoded = formatter.loads(formatter.dumps(message))
            assert isinstance(decoded, CallMessage)
            assert decoded.uri == "obj/1"
            assert decoded.method == "work"
            assert decoded.args == (1, "x")
            assert decoded.kwargs == {"k": [2]}
            assert decoded.one_way is True

    def test_return_message_value_xor_error(self):
        ok = ReturnMessage(value=42)
        assert not ok.is_error
        failed = ReturnMessage(
            error=RemoteErrorInfo(type_name="ValueError", message="bad")
        )
        assert failed.is_error

    def test_error_info_from_exception(self):
        try:
            raise KeyError("missing")
        except KeyError as exc:
            info = RemoteErrorInfo.from_exception(exc, "trace text")
        assert info.type_name == "KeyError"
        assert "missing" in info.message
        assert info.traceback_text == "trace text"

    def test_return_message_roundtrip_with_error(self):
        message = ReturnMessage(
            error=RemoteErrorInfo("RuntimeError", "boom", "tb")
        )
        formatter = BinaryFormatter()
        decoded = formatter.loads(formatter.dumps(message))
        assert decoded.is_error
        assert decoded.error.type_name == "RuntimeError"
        assert decoded.error.traceback_text == "tb"
