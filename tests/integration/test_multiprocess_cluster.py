"""Integration tests: worker nodes as separate OS processes over TCP.

These exercise the full distribution story — worker start, boot-code module
imports, cross-process placement, real-socket serialization, nested
creation inside a worker process, and clean shutdown.
"""

from __future__ import annotations

import os
import signal
import sys
import threading

import pytest

import repro.core as parc
from repro.apps.primes import PrimeServer, sieve
from repro.cluster.proc import grain_from_spec, grain_to_spec
from repro.core import (
    AdaptiveGrainController,
    GrainPolicy,
    ParcConfig,
    SchedulerConfig,
)
from repro.errors import ScooppError


WORKER_MODULES = ("repro.apps.primes",)


@pytest.fixture
def process_runtime():
    rt = parc.init(
        ParcConfig(
            nodes=1,
            channel="tcp",
            worker_processes=2,
            worker_modules=WORKER_MODULES,
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=4)),
        )
    )
    try:
        yield rt
    finally:
        parc.shutdown()


class TestGrainSpecs:
    def test_static_roundtrip(self):
        policy = GrainPolicy(agglomerate=True, max_calls=7)
        rebuilt = grain_from_spec(grain_to_spec(policy))
        assert rebuilt == policy

    def test_adaptive_roundtrip(self):
        controller = AdaptiveGrainController(
            overhead_s=2e-3, pack_factor=3.0, max_calls_cap=99
        )
        rebuilt = grain_from_spec(grain_to_spec(controller))
        assert isinstance(rebuilt, AdaptiveGrainController)
        assert rebuilt.overhead_s == 2e-3
        assert rebuilt.max_calls_cap == 99

    def test_unknown_spec_rejected(self):
        with pytest.raises(ScooppError):
            grain_from_spec(("mystery", {}))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ScooppError):
            grain_to_spec(object())  # type: ignore[arg-type]


class TestClusterValidation:
    def test_process_workers_need_tcp(self):
        with pytest.raises(ScooppError, match="TCP"):
            parc.init(
                ParcConfig(nodes=1, channel="loopback", worker_processes=1)
            )

    def test_negative_workers_rejected(self):
        with pytest.raises(ScooppError):
            parc.init(ParcConfig(nodes=1, channel="tcp", worker_processes=-1))


class TestProcessCluster:
    def test_objects_placed_across_processes(self, process_runtime):
        servers = [parc.new(PrimeServer) for _ in range(3)]
        stats = process_runtime.stats()
        assert len(stats) == 3  # 1 local + 2 process nodes
        assert [node["ios"] for node in stats] == [1, 1, 1]
        for server in servers:
            server.parc_release()

    def test_cross_process_calls_correct(self, process_runtime):
        servers = [parc.new(PrimeServer) for _ in range(3)]
        for index, server in enumerate(servers):
            start = 2 + index * 100
            server.process(list(range(start, start + 100)))
        total = sum(server.count() for server in servers)
        assert total == len(sieve(301))
        for server in servers:
            server.parc_release()

    def test_aggregated_async_calls_cross_processes(self, process_runtime):
        server = parc.new(PrimeServer)
        for start in range(2, 202, 10):
            server.process(list(range(start, start + 10)))  # aggregates
        assert server.count() == len(sieve(201))
        assert server.found()[:4] == [2, 3, 5, 7]
        server.parc_release()

    def test_total_ios_counts_remote_nodes(self, process_runtime):
        servers = [parc.new(PrimeServer) for _ in range(3)]
        assert process_runtime.cluster.total_ios() == 3
        for server in servers:
            server.parc_release()

    def test_stats_and_directory_pushes_do_not_cross_replies(
        self, process_runtime
    ):
        """A directory push (the control thread's) racing ``stats()``
        (the application's): every caller gets its own answer."""
        cluster = process_runtime.cluster
        handle = cluster.worker_handles[0]
        directory = cluster.home_node.om.directory()
        failures: list[BaseException] = []

        def run(step):
            try:
                for _ in range(150):
                    step()
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        def read_stats():
            rows = cluster.stats()
            assert [row["ios"] for row in rows] == [0, 0, 0], rows

        threads = [
            threading.Thread(target=run, args=(step,), daemon=True)
            for step in (
                read_stats,
                lambda: handle.set_directory(directory),
                lambda: handle.set_directory(directory),
            )
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


@pytest.fixture
def one_worker_runtime():
    rt = parc.init(ParcConfig(nodes=1, channel="tcp", worker_processes=1))
    try:
        yield rt
    finally:
        parc.shutdown()


class TestDeadWorkerVerdict:
    """``deliver_verdicts`` called directly: no heartbeat, no sleep."""

    def test_exited_worker_is_dropped_and_reaped(self, one_worker_runtime):
        cluster = one_worker_runtime.cluster
        handle = cluster.worker_handles[0]
        uri = handle.base_uri
        os.kill(handle.process.pid, signal.SIGKILL)
        handle.process.join(timeout=30.0)
        assert not handle.process.is_alive()
        cluster.deliver_verdicts({uri: False}, {uri: False})
        assert cluster.worker_count() == 0
        assert uri not in cluster.home_node.om.directory()
        cluster._redistribute_directory()
        snapshot = cluster.metrics.snapshot()
        assert snapshot.get("cluster.errors.redistribute_directory", 0) == 0

    def test_running_worker_keeps_its_handle(self, one_worker_runtime):
        cluster = one_worker_runtime.cluster
        handle = cluster.worker_handles[0]
        uri = handle.base_uri
        cluster.deliver_verdicts({uri: False}, {uri: False})
        assert handle.process.is_alive()
        assert cluster.worker_count() == 1
        assert uri in cluster.home_node.om.directory()
