"""Unit tests for the remoting host: publication, dispatch, lifetime."""

from __future__ import annotations

import pytest

import repro.channels.http as http_module
from repro.channels import HttpChannel, LoopbackChannel
from repro.channels.services import ChannelServices
from repro.errors import (
    RemoteInvocationError,
    RemotingError,
)
from repro.perfmodel import VirtualClock
from repro.remoting import (
    MarshalByRefObject,
    ObjRef,
    RemotingHost,
    WellKnownObjectMode,
)
from repro.remoting.proxy import RemoteProxy, is_proxy, proxy_uri


class Counter(MarshalByRefObject):
    def __init__(self):
        self.n = 0

    def incr(self, by=1):
        self.n += by
        return self.n

    def _hidden(self):
        return "secret"

    def fail(self):
        raise RuntimeError("intentional")


class Greeter(MarshalByRefObject):
    def greet(self, name):
        return f"hello {name}"


@pytest.fixture
def host():
    services = ChannelServices()
    services.register_channel(LoopbackChannel())
    remoting_host = RemotingHost(name="test-host", services=services)
    remoting_host.listen(LoopbackChannel(), "auto")
    yield remoting_host
    remoting_host.close()


def proxy_to(host, path):
    uri = f"{host.uris[0]}/{path}"
    return host.get_object(uri)


class TestPublication:
    def test_publish_and_call(self, host):
        counter = Counter()
        ref = host.publish(counter, "counter")
        assert "counter" in ref.uris[0]
        proxy = proxy_to(host, "counter")
        # resolve_local shortcut: same host gets the live object back...
        # so call through a fresh client host to force the wire path.
        assert proxy.incr() in (1,)

    def test_publish_requires_mbr(self, host):
        class Plain:
            pass

        with pytest.raises(RemotingError, match="MarshalByRefObject"):
            host.publish(Plain())

    def test_duplicate_path_rejected(self, host):
        host.publish(Counter(), "dup")
        with pytest.raises(RemotingError):
            host.publish(Counter(), "dup")

    def test_republish_same_object_returns_same_ref(self, host):
        counter = Counter()
        first = host.publish(counter, "same")
        second = host.publish(counter)
        assert first.uris == second.uris

    def test_auto_path_generated(self, host):
        ref = host.publish(Counter())
        assert "auto/counter-" in ref.uris[0]

    def test_unpublish(self, host):
        counter = Counter()
        host.publish(counter, "gone")
        host.unpublish("gone")
        assert not counter.is_published()
        assert "gone" not in host.published_paths()

    def test_published_paths_sorted(self, host):
        host.publish(Counter(), "b")
        host.publish(Counter(), "a")
        assert host.published_paths() == ["a", "b"]


class TestWellKnownModes:
    def test_singleton_keeps_state(self, host):
        host.register_well_known(Counter, "wk", WellKnownObjectMode.SINGLETON)
        proxy = proxy_to(host, "wk")
        assert proxy.incr() == 1
        assert proxy.incr() == 2

    def test_singleton_constructed_lazily(self, host):
        constructed = []

        class Lazy(MarshalByRefObject):
            def __init__(self):
                constructed.append(1)

            def ping(self):
                return "pong"

        host.register_well_known(Lazy, "lazy")
        assert constructed == []
        proxy_to(host, "lazy").ping()
        assert constructed == [1]

    def test_single_call_resets_state(self, host):
        host.register_well_known(Counter, "sc", WellKnownObjectMode.SINGLE_CALL)
        proxy = proxy_to(host, "sc")
        assert proxy.incr() == 1
        assert proxy.incr() == 1  # fresh instance per call

    def test_well_known_requires_mbr(self, host):
        class Plain:
            pass

        with pytest.raises(RemotingError):
            host.register_well_known(Plain, "bad")

    def test_failing_constructor_reported(self, host):
        class Broken(MarshalByRefObject):
            def __init__(self):
                raise ValueError("no")

            def x(self):
                return 1

        host.register_well_known(Broken, "broken")
        with pytest.raises(RemoteInvocationError, match="ActivationError"):
            proxy_to(host, "broken").x()


class TestDispatch:
    def test_unknown_object(self, host):
        with pytest.raises(RemoteInvocationError, match="UnknownObjectError"):
            proxy_to(host, "missing").anything()

    def test_unknown_method(self, host):
        host.publish(Greeter(), "greeter")
        with pytest.raises(RemoteInvocationError, match="no remote method"):
            proxy_to(host, "greeter").nonexistent()

    def test_private_method_blocked(self, host):
        host.publish(Counter(), "private-test")
        proxy = proxy_to(host, "private-test")
        with pytest.raises(AttributeError):
            proxy._hidden  # noqa: B018 - attribute access is the test

    def test_user_exception_carries_traceback(self, host):
        host.publish(Counter(), "failing")
        try:
            proxy_to(host, "failing").fail()
        except RemoteInvocationError as exc:
            assert "intentional" in str(exc)
            assert "RuntimeError" in exc.remote_traceback
        else:
            pytest.fail("expected RemoteInvocationError")

    def test_kwargs_pass_through(self, host):
        host.publish(Counter(), "kw")
        assert proxy_to(host, "kw").incr(by=5) == 5

    def test_one_way_executes_and_acks_immediately(self, host):
        import time

        host.publish(Counter(), "ow")
        proxy = proxy_to(host, "ow")
        proxy.incr.one_way()
        deadline = time.time() + 5
        while time.time() < deadline:
            if proxy.incr() >= 2:
                break
            time.sleep(0.01)
        else:
            pytest.fail("one-way call never executed")

    def test_one_way_failures_recorded(self, host):
        import time

        host.publish(Counter(), "owf")
        proxy = proxy_to(host, "owf")
        proxy.fail.one_way()
        deadline = time.time() + 5
        while time.time() < deadline and not host.one_way_failures:
            time.sleep(0.01)
        failures = host.one_way_failures
        assert failures
        assert failures[0][1] == "fail"

    def test_one_way_failure_count_is_cumulative(self, host):
        import time

        host.publish(Counter(), "owf")
        proxy = proxy_to(host, "owf")
        for _ in range(40):
            proxy.fail.one_way()
        deadline = time.time() + 5
        while time.time() < deadline and host.one_way_failure_count < 40:
            time.sleep(0.01)
        assert host.one_way_failure_count == 40
        assert len(host.one_way_failures) == 32


class TestReferences:
    def test_returned_mbr_becomes_proxy_on_foreign_host(self, host):
        class Factory(MarshalByRefObject):
            def make(self):
                return Counter()

        host.register_well_known(Factory, "factory")
        client_services = ChannelServices()
        client_services.register_channel(LoopbackChannel())
        client = RemotingHost(name="client", services=client_services)
        try:
            factory = client.get_object(f"{host.uris[0]}/factory")
            counter = factory.make()
            assert is_proxy(counter)
            assert counter.incr() == 1
            assert counter.incr() == 2
        finally:
            client.close()

    def test_reference_shortcut_on_home_host(self, host):
        class Holder(MarshalByRefObject):
            def __init__(self):
                self.target = Counter()

            def get_target(self):
                return self.target

        holder = Holder()
        host.publish(holder, "holder")
        # Decoding on the same host resolves to the live object.
        result = proxy_to(host, "holder").get_target()
        assert result is holder.target

    def test_objref_validation(self):
        with pytest.raises(RemotingError):
            ObjRef(uris=())

    def test_proxy_uri_helpers(self, host):
        host.publish(Counter(), "uri-test")
        proxy = proxy_to(host, "uri-test")
        assert proxy_uri(proxy).endswith("/uri-test")
        with pytest.raises(RemotingError):
            proxy_uri(object())

    def test_proxy_equality_by_target(self, host):
        host.publish(Counter(), "eq-test")
        first = proxy_to(host, "eq-test")
        second = proxy_to(host, "eq-test")
        assert first == second
        assert hash(first) == hash(second)

    def test_proxy_no_usable_channel(self):
        services = ChannelServices()  # nothing registered
        proxy = RemoteProxy(ObjRef(uris=("tcp://h:1/x",)), services=services)
        with pytest.raises(RemotingError, match="no usable channel"):
            proxy.anything()


class TestLifetime:
    def test_leases_renew_on_call(self):
        clock = VirtualClock()
        services = ChannelServices()
        services.register_channel(LoopbackChannel())
        host = RemotingHost(name="lease-host", services=services, clock=clock)
        host.listen(LoopbackChannel(), "auto")
        try:
            counter = Counter()
            host.objref_for(counter)  # implicit publish: finite lease
            path = counter._parc_path
            clock.advance(299.0)
            host.get_object(f"{host.uris[0]}/{path}").incr()
            clock.advance(200.0)  # would have expired without the renewal
            assert host.collect_expired() == []
            clock.advance(301.0)
            assert host.collect_expired() == [path]
            assert path not in host.published_paths()
        finally:
            host.close()

    def test_explicit_publish_is_immortal(self):
        clock = VirtualClock()
        services = ChannelServices()
        services.register_channel(LoopbackChannel())
        host = RemotingHost(name="lease-host2", services=services, clock=clock)
        try:
            host.publish(Counter(), "pinned")
            clock.advance(10_000_000.0)
            assert host.collect_expired() == []
        finally:
            host.close()


class TestLifecycle:
    def test_double_listen_same_scheme_rejected(self, host):
        with pytest.raises(RemotingError):
            host.listen(LoopbackChannel(), "auto")

    def test_close_idempotent(self, host):
        host.close()
        host.close()

    def test_listen_after_close_rejected(self, host):
        host.close()
        with pytest.raises(RemotingError):
            host.listen(LoopbackChannel(), "auto")

    def test_context_manager(self):
        services = ChannelServices()
        with RemotingHost(name="cm", services=services) as cm_host:
            assert cm_host.published_paths() == []


class TestHttpRequestHeaders:
    def test_request_carries_its_own_content_type_and_no_user_header(
        self, monkeypatch
    ):
        seen = []
        read = http_module.read_http_message

        def spy(sock):
            start_line, headers, body = read(sock)
            if start_line.startswith("POST "):
                seen.append(headers)
            return start_line, headers, body

        monkeypatch.setattr(http_module, "read_http_message", spy)
        services = ChannelServices()
        services.register_channel(HttpChannel())
        server = RemotingHost(name="http-server", services=ChannelServices())
        client = RemotingHost(name="http-client", services=services)
        try:
            binding = server.listen(HttpChannel(), "127.0.0.1:0")
            server.register_well_known(Greeter, "greeter")
            proxy = client.get_object(f"http://{binding.authority}/greeter")
            assert proxy.greet("web") == "hello web"
        finally:
            client.close()
            server.close()
            services.close_all()
        [headers] = seen
        assert headers["content-type"].startswith("text/xml")
        assert not [key for key in headers if key.startswith("x-parc-")]
