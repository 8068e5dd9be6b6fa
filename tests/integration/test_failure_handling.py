"""Integration tests: node failure, placement failover, call retries."""

from __future__ import annotations

import pytest

import repro.core as parc
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.errors import ChannelError, PlacementError, ScooppError
from repro.remoting.resilience import (
    RetryPolicy,
    call_with_retry,
    is_transport_error,
    retrying,
)


@parc.parallel(name="fail.Echo", async_methods=["put"], sync_methods=["get"])
class Echo:
    def __init__(self):
        self.values = []

    def put(self, value):
        self.values.append(value)

    def get(self):
        return list(self.values)


@pytest.fixture(params=["tcp", "aio"])
def tcp_runtime(request):
    # Socket-backed cluster so "killing" a node leaves real dead sockets
    # behind; parametrized over both socket transports so failover works
    # identically on the threaded and the multiplexed channel.
    rt = parc.init(
        ParcConfig(
            nodes=3,
            channel=request.param,
            scheduler=SchedulerConfig(grain=GrainPolicy()),
        )
    )
    try:
        yield rt
    finally:
        parc.shutdown()


def kill_node(runtime, index):
    """Simulate a crash: the node's host stops serving."""
    node = runtime.cluster.nodes[index]
    node.close()
    return node


class TestPlacementFailover:
    def test_creation_survives_dead_node(self, tcp_runtime):
        kill_node(tcp_runtime, 2)
        echoes = [parc.new(Echo) for _ in range(4)]
        for index, echo in enumerate(echoes):
            echo.put(index)
            assert echo.get() == [index]
        live_stats = tcp_runtime.stats()[:2]
        assert sum(node["ios"] for node in live_stats) == 4
        for echo in echoes:
            echo.parc_release()

    def test_dead_node_recorded(self, tcp_runtime):
        dead = kill_node(tcp_runtime, 1)
        for _ in range(3):
            parc.new(Echo)
        home_om = tcp_runtime.cluster.home_node.om
        assert dead.base_uri in home_om.dead_nodes()

    def test_report_error_from_a_live_peer_is_not_death(
        self, tcp_runtime
    ):
        cluster = tcp_runtime.cluster
        peer = cluster.nodes[1]

        def broken():
            raise RuntimeError("histogram export failed")

        peer.om.report = broken
        home_om = cluster.home_node.om
        view = home_om.cluster_view()
        # No row this round, so nothing is placed there — but the peer
        # answered, so it is not declared dead.
        assert [node.alive for node in view.nodes] == [True, False, True]
        assert home_om.dead_nodes() == []
        counter = cluster.metrics.export()["cluster.errors.report"]
        assert counter["value"] == 1

    def test_probe_peers_detects_death(self, tcp_runtime):
        dead = kill_node(tcp_runtime, 2)
        home_om = tcp_runtime.cluster.home_node.om
        results = home_om.probe_peers()
        assert results[dead.base_uri] is False
        live = [uri for uri, alive in results.items() if alive]
        assert len(live) == 2

    def test_all_nodes_dead_is_clear_error(self):
        rt = parc.init(ParcConfig(nodes=2, channel="tcp"))
        try:
            for node in rt.cluster.nodes:
                rt.cluster.home_node.om.note_dead(node.base_uri)
            with pytest.raises((PlacementError, ScooppError)):
                parc.new(Echo)
        finally:
            parc.shutdown()

    def test_calls_to_dead_io_fail_loudly(self, tcp_runtime):
        echoes = [parc.new(Echo) for _ in range(3)]
        # Find an echo hosted on node 1, then kill node 1.
        kill_node(tcp_runtime, 1)
        failures = 0
        for echo in echoes:
            try:
                echo.get()
            except Exception:  # noqa: BLE001 - any loud failure is correct
                failures += 1
        assert failures >= 1  # round robin put one IO on node 1


class TestRetryHelpers:
    def test_succeeds_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ChannelError("transient")
            return "ok"

        assert call_with_retry(
            flaky, policy=RetryPolicy(attempts=5, backoff_s=0.0)
        ) == "ok"
        assert len(calls) == 3

    def test_exhausted_attempts_reraise(self):
        def always_fails():
            raise ChannelError("still down")

        with pytest.raises(ChannelError, match="still down"):
            call_with_retry(
                always_fails, policy=RetryPolicy(attempts=2, backoff_s=0.0)
            )

    def test_non_retryable_errors_pass_through_immediately(self):
        calls = []

        def wrong_type():
            calls.append(1)
            raise ValueError("not transport")

        with pytest.raises(ValueError):
            call_with_retry(
                wrong_type, policy=RetryPolicy(attempts=5, backoff_s=0.0)
            )
        assert len(calls) == 1

    def test_decorator_form(self):
        attempts = []

        @retrying(RetryPolicy(attempts=3, backoff_s=0.0))
        def sometimes(value):
            attempts.append(1)
            if len(attempts) < 2:
                raise ChannelError("flap")
            return value * 2

        assert sometimes(21) == 42

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_transport_error_classifier(self):
        import socket

        from repro.errors import (
            AddressError,
            CircuitOpenError,
            FaultInjectedError,
            RemoteInvocationError,
        )

        assert is_transport_error(ChannelError("x"))
        assert is_transport_error(ConnectionRefusedError())
        assert is_transport_error(TimeoutError())
        assert is_transport_error(socket.timeout())
        assert is_transport_error(CircuitOpenError("quarantined"))
        assert is_transport_error(FaultInjectedError("chaos"))
        assert not is_transport_error(RemoteInvocationError("app failed"))
        assert not is_transport_error(ValueError("nope"))
        # Classification is by type, not message: "connect" in the text
        # of a non-transport error must not fool it, and a structurally
        # hopeless address error must not be retried.
        assert not is_transport_error(ValueError("could not connect"))
        assert not is_transport_error(AddressError("bad uri: connect"))

    def test_backoff_jitter_spreads_sleeps(self):
        policy = RetryPolicy(attempts=3, backoff_s=0.1, jitter=0.5)
        sleeps = {round(policy.sleep_for(0.1), 6) for _ in range(50)}
        assert all(0.05 <= s <= 0.15 for s in sleeps)
        assert len(sleeps) > 1  # actually jittered, not constant
        assert RetryPolicy(jitter=0.0).sleep_for(0.1) == 0.1
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
