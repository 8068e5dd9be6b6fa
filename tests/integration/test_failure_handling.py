"""Integration tests: node failure, placement failover, call recovery."""

from __future__ import annotations

import pytest

import repro.core as parc
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.core.proxy_object import is_transport_error
from repro.errors import ChannelError, PlacementError, ScooppError


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
    """What makes a failed grain call worth a recovery and one retry."""

    def test_transport_error_classifier(self):
        import socket

        from repro.errors import (
            AddressError,
            FaultInjectedError,
            RemoteInvocationError,
        )

        assert is_transport_error(ChannelError("x"))
        assert is_transport_error(ConnectionRefusedError())
        assert is_transport_error(TimeoutError())
        assert is_transport_error(socket.timeout())
        assert is_transport_error(FaultInjectedError("chaos"))
        assert not is_transport_error(RemoteInvocationError("app failed"))
        assert not is_transport_error(ValueError("nope"))
        # Classification is by type, not message: "connect" in the text
        # of a non-transport error must not fool it, and a structurally
        # hopeless address error must not be recovered.
        assert not is_transport_error(ValueError("could not connect"))
        assert not is_transport_error(AddressError("bad uri: connect"))
