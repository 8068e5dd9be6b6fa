"""Integration: adaptive scheduler — live migration, work stealing,
placement introspection, and node-down placement across transports."""

from __future__ import annotations

import threading
import time

import pytest

import repro.core as parc
from repro.cluster.cluster import Cluster
from repro.cluster.placement import PlacementPolicy
from repro.core import AdaptiveGrainController, ParcConfig, SchedulerConfig
from repro.errors import MigrationError


@parc.parallel(
    name="sched.Tally",
    async_methods=["add"],
    sync_methods=["total"],
)
class Tally:
    def __init__(self):
        self.value = 0

    def add(self, n):
        time.sleep(0.001)
        self.value += n

    def total(self):
        return self.value


class PinToFirst(PlacementPolicy):
    """Everything lands on the first live node: manufactured imbalance."""

    name = "pin_to_first"

    def choose(self, view, home_index):
        return self._live(view)[0].index


def grain_uri_on(node):
    impls = node.impl_snapshot()
    assert impls, f"no grains hosted on {node.base_uri}"
    return node.host.objref_for(impls[0]).uris[0]


class TestLiveMigration:
    def test_migration_mid_traffic_loses_nothing(self):
        config = ParcConfig(nodes=3)
        with parc.session(config) as runtime:
            tally = parc.new(Tally)
            for i in range(100):
                tally.add(1)
            # Migrate while a writer keeps posting from another thread.
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    tally.add(1)
                    time.sleep(0.0005)

            writer = threading.Thread(target=hammer, daemon=True)
            writer.start()
            try:
                cluster = runtime.cluster
                victim = next(
                    node for node in cluster.nodes if node.io_count()
                )
                target = next(
                    node.base_uri
                    for node in cluster.nodes
                    if node.base_uri != victim.base_uri
                )
                result = runtime.migrate_grain(
                    grain_uri_on(victim), target
                )
                assert result["lost_calls"] == 0
                assert result["target"] == target
            finally:
                stop.set()
                writer.join(timeout=10.0)
            posted = 100 + runtime.placement_report()["calls_moved"]
            # Every call posted before and during the move must land
            # exactly once: the sync total() drains first.
            for _ in range(10):
                tally.add(1)
            assert tally.total() >= 110
            report = runtime.placement_report()
            assert report["migrations"] >= 1
            assert report["lost_calls"] == 0
            del posted

    def test_sync_call_parked_during_migration_completes(self):
        config = ParcConfig(nodes=2)
        with parc.session(config) as runtime:
            tally = parc.new(Tally)
            for i in range(50):
                tally.add(2)
            results = []

            def reader():
                results.append(tally.total())

            readers = [
                threading.Thread(target=reader, daemon=True)
                for _ in range(3)
            ]
            for thread in readers:
                thread.start()
            cluster = runtime.cluster
            victim = next(
                node for node in cluster.nodes if node.io_count()
            )
            target = next(
                node.base_uri
                for node in cluster.nodes
                if node.base_uri != victim.base_uri
            )
            runtime.migrate_grain(grain_uri_on(victim), target)
            for thread in readers:
                thread.join(timeout=30.0)
            assert len(results) == 3
            assert tally.total() == 100

    def test_migrating_to_own_node_fails_cleanly(self):
        config = ParcConfig(nodes=2)
        with parc.session(config) as runtime:
            tally = parc.new(Tally)
            tally.add(1)
            cluster = runtime.cluster
            victim = next(
                node for node in cluster.nodes if node.io_count()
            )
            with pytest.raises(MigrationError, match="own node"):
                runtime.migrate_grain(
                    grain_uri_on(victim), victim.base_uri
                )
            assert tally.total() == 1  # the grain still serves


class TestWorkStealing:
    def test_pinned_hotspot_drains_to_idle_nodes(self):
        config = ParcConfig(
            nodes=3,
            scheduler=SchedulerConfig(
                placement=PinToFirst(),
                work_stealing=True,
                rebalance_interval_s=0.02,
                steal_threshold=4,
                imbalance_ratio=1.05,
                migration_cooldown_s=0.2,
            ),
        )
        # Enough queued work that the pinned node's backlog outlives
        # many rebalance ticks: 8 grains x 150 x 1 ms is seconds of
        # serial work, so the stealing loop cannot race the drain.
        rounds = 150
        with parc.session(config) as runtime:
            tallies = [parc.new(Tally) for _ in range(8)]
            for _ in range(rounds):
                for tally in tallies:
                    tally.add(1)
            deadline = time.monotonic() + 20.0
            report = runtime.placement_report()
            while (
                report["steals"] + report["migrations"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
                report = runtime.placement_report()
            assert report["migrations"] >= 1, report
            assert report["lost_calls"] == 0
            # Zero-loss under stealing: every add() landed exactly once.
            assert [tally.total() for tally in tallies] == [rounds] * 8
            populated = [
                row for row in report["nodes"] if row["grains"] > 0
            ]
            assert len(populated) >= 2, report["nodes"]


class TestPlacementReport:
    def test_report_shape_and_decisions(self):
        config = ParcConfig(
            nodes=2,
            scheduler=SchedulerConfig(placement="least_loaded"),
        )
        with parc.session(config) as runtime:
            tallies = [parc.new(Tally) for _ in range(4)]
            for tally in tallies:
                tally.add(1)
            report = runtime.placement_report()
            assert report["policy"] == "least_loaded"
            assert report["work_stealing"] is False
            assert len(report["nodes"]) == 2
            for row in report["nodes"]:
                assert set(row) >= {
                    "base_uri",
                    "grains",
                    "queued",
                    "load",
                    "migrations_in",
                    "migrations_out",
                }
            assert sum(row["grains"] for row in report["nodes"]) == 4
            decisions = report["last_decisions"]
            assert len(decisions) == 4
            assert all(
                d["class_name"] == "sched.Tally" for d in decisions
            )
            assert all("base_uri" in d and "ts" in d for d in decisions)
            assert [tally.total() for tally in tallies] == [1] * 4


CHANNEL_KINDS = ["tcp", "aio", "shm"]


class TestNodeDownPlacement:
    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    @pytest.mark.parametrize("policy", ["least_loaded", "locality"])
    def test_dead_node_never_chosen(self, kind, policy):
        from repro.channels.factory import available_kinds

        if kind not in available_kinds():
            pytest.skip(f"channel kind {kind!r} unavailable")
        cluster = Cluster(
            ParcConfig(
                nodes=3,
                channel=kind,
                scheduler=SchedulerConfig(placement=policy),
            )
        )
        try:
            dead = cluster.nodes[1]
            for node in cluster.nodes:
                node.om.note_dead(dead.base_uri)
            for _ in range(12):
                _decision, factory_uri = cluster.home_node.om.decide_and_place(
                    "sched.Tally"
                )
                assert factory_uri is not None
                assert not factory_uri.startswith(dead.base_uri)
            view = cluster.home_node.om.cluster_view("sched.Tally")
            assert [n.alive for n in view.nodes] == [True, False, True]
        finally:
            cluster.close()


class TestLocalityPlacement:
    def test_home_node_gets_no_transfer_discount(self):
        """Every node of a chaos+loopback cluster is in this process, so
        a class's call size must not tilt the choice towards home: the
        less loaded peer wins."""
        controller = AdaptiveGrainController()
        controller.observe_call_bytes("sched.Tally", 64 * 1024, 1)
        cluster = Cluster(
            ParcConfig(
                nodes=2,
                channel="chaos+loopback",
                scheduler=SchedulerConfig(
                    grain=controller, placement="locality"
                ),
            )
        )
        try:
            home, peer = cluster.nodes
            home.create_impl("sched.Tally", (), {})
            view = home.om.cluster_view("sched.Tally")
            assert [n.load for n in view.nodes] == [1.0, 0.0]
            _decision, factory_uri = home.om.decide_and_place("sched.Tally")
            assert factory_uri == f"{peer.base_uri}/factory"
        finally:
            cluster.close()
