"""Integration: ``same_node_transport="shm"`` across the runtime suites.

The contract under test: turning the backplane on changes the route,
not the semantics.  Farms, tracing, chaos, breakers and multi-process
clusters behave identically, node URIs stay socket URIs (remote peers
never learn about shm), and the router's counters prove the calls
actually left the wire.
"""

from __future__ import annotations

import pytest

import repro.core as parc
from repro.core import (
    GrainPolicy,
    ParcConfig,
    SchedulerConfig,
    TelemetryConfig,
)
from repro.channels.breaker import BreakerPolicy
from repro.cluster.cluster import Cluster
from repro.errors import ScooppError


@parc.parallel(
    name="shmbp.Counter", async_methods=["add"], sync_methods=["total"]
)
class Counter:
    def __init__(self):
        self.value = 0

    def add(self, n):
        self.value += n

    def total(self):
        return self.value


def _router_counts(runtime) -> dict[str, float]:
    snapshot = runtime.cluster.metrics.snapshot()
    return {
        key: value
        for key, value in snapshot.items()
        if key.startswith("shm.router.")
    }


class TestFarmOverBackplane:
    @pytest.mark.parametrize("base", ["tcp", "aio"])
    def test_farm_routes_over_shm(self, base):
        rt = parc.init(
            ParcConfig(
                nodes=3,
                channel=base,
                same_node_transport="shm",
                scheduler=SchedulerConfig(grain=GrainPolicy()),
            )
        )
        try:
            counters = [parc.new(Counter) for _ in range(6)]
            for counter in counters:
                for n in range(5):
                    counter.add(n)
            assert [c.total() for c in counters] == [10] * 6
            counts = _router_counts(rt)
            assert counts["shm.router.shm_calls"] > 0
            assert counts["shm.router.fallbacks"] == 0
            # URIs stay socket URIs: remote peers never see shm.
            for node in rt.cluster.nodes:
                assert node.base_uri.startswith(f"{base}://")
        finally:
            parc.shutdown()

    def test_large_payloads_cross_the_rings(self):
        rt = parc.init(
            ParcConfig(nodes=2, channel="tcp", same_node_transport="shm")
        )
        try:
            counter = parc.new(Counter)
            counter.add(1)
            assert counter.total() == 1
            # A payload bigger than the default handshake-negotiated
            # ring streams through wrap/park without corruption.
            @parc.parallel(name="shmbp.Echo", sync_methods=["echo"])
            class Echo:
                def echo(self, blob):
                    return blob

            echo = parc.new(Echo)
            blob = bytes(range(256)) * 1024  # 256 KiB
            assert echo.echo(blob) == blob
        finally:
            parc.shutdown()


class TestTracingOverBackplane:
    def test_spans_survive_the_shm_route(self):
        config = ParcConfig(
            nodes=2,
            channel="tcp",
            same_node_transport="shm",
            telemetry=TelemetryConfig(enabled=True),
        )
        with parc.session(config) as runtime:
            from repro.telemetry import get_global_tracer

            tracer = get_global_tracer()
            with tracer.span("app", "root"):
                counters = [parc.new(Counter) for _ in range(4)]
                for counter in counters:
                    counter.add(2)
                assert [c.total() for c in counters] == [2] * 4
            document = runtime.dump_trace()
            counts = _router_counts(runtime)
        assert counts["shm.router.shm_calls"] > 0
        io_events = [
            e for e in document["traceEvents"] if e.get("cat") == "io"
        ]
        assert io_events, "no io spans despite shm routing"
        # Every io span carries trace context that arrived in headers
        # over the rings.
        for event in io_events:
            assert "trace_id" in event["args"]


class TestChaosAndBreakerOverBackplane:
    def test_breaker_chaos_stack_composes(self):
        from repro.chaos import ChaosController

        controller = ChaosController(seed=11)
        rt = parc.init(
            ParcConfig(
                nodes=2,
                channel="chaos+tcp",
                breaker=BreakerPolicy(
                    failure_threshold=3, reset_timeout_s=0.2
                ),
                chaos_controller=controller,
                same_node_transport="shm",
                scheduler=SchedulerConfig(grain=GrainPolicy()),
            )
        )
        try:
            counters = [parc.new(Counter) for _ in range(4)]
            for counter in counters:
                counter.add(3)
            assert [c.total() for c in counters] == [3] * 4
            counts = _router_counts(rt)
            assert counts["shm.router.shm_calls"] > 0
        finally:
            parc.shutdown()


class TestMultiProcessBackplane:
    def test_worker_processes_negotiate_shm(self):
        """Parent ↔ worker calls cross process boundaries over rings."""
        rt = parc.init(
            ParcConfig(
                nodes=1,
                channel="tcp",
                worker_processes=1,
                worker_modules=("tests.integration.test_shm_backplane",),
                same_node_transport="shm",
            )
        )
        try:
            counters = [parc.new(Counter) for _ in range(4)]
            for counter in counters:
                counter.add(4)
            assert [c.total() for c in counters] == [4] * 4
            counts = _router_counts(rt)
            assert counts["shm.router.shm_calls"] > 0
            assert counts["shm.router.fallbacks"] == 0
        finally:
            parc.shutdown()


class TestFallbackAndValidation:
    def test_remote_like_peer_stays_on_wire(self):
        """An authority with no handshake socket rides the wire."""
        rt = parc.init(
            ParcConfig(nodes=2, channel="tcp", same_node_transport="shm")
        )
        try:
            from repro.channels.tcp import TcpChannel

            # A plain tcp listener with no shm backplane: the router
            # must treat it exactly like a remote host.
            wire_only = TcpChannel()
            binding = wire_only.listen(
                "127.0.0.1:0", lambda p, b, h: bytes(b)
            )
            try:
                client = rt.cluster.client_channel
                assert client.call(binding.authority, "p", b"w") == b"w"
                counts = _router_counts(rt)
                assert counts["shm.router.wire_calls"] > 0
            finally:
                binding.close()
                wire_only.close()
        finally:
            parc.shutdown()

    def test_rejects_unknown_transport(self):
        with pytest.raises(ScooppError, match="same_node_transport"):
            parc.init(ParcConfig(nodes=1, same_node_transport="rdma"))
        parc.shutdown()

    def test_rejects_non_socket_base(self):
        with pytest.raises(ScooppError, match="socket channel kind"):
            Cluster(
                ParcConfig(
                    nodes=1, channel="loopback", same_node_transport="shm"
                )
            )

    def test_backplane_closes_cleanly(self):
        """Handshake sockets disappear with the cluster."""
        from repro.shm import shm_available

        rt = parc.init(
            ParcConfig(nodes=2, channel="tcp", same_node_transport="shm")
        )
        authorities = [
            node.base_uri.split("://", 1)[1] for node in rt.cluster.nodes
        ]
        assert all(shm_available(a) for a in authorities)
        parc.shutdown()
        assert not any(shm_available(a) for a in authorities)
