"""Integration tests: scripted chaos, self-healing respawn, shutdown.

The acceptance scenario for the fault-injection substrate: a three-node
cluster loses a node mid-farm and the workload still completes, because
the failure detector declares the node dead and restartable grains are
respawned on a surviving node.  Non-restartable grains surface
:class:`~repro.errors.NodeLostError` promptly instead of hanging.
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

import repro.core as parc
from repro.chaos import ChaosController, plan_from_percentages
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.errors import (
    ChannelClosedError,
    NodeLostError,
    ParcError,
)


@parc.parallel(name="chaos.Square", sync_methods=["compute"], restartable=True)
class Square:
    """Stateless restartable worker: respawn loses nothing."""

    def compute(self, value):
        return value * value


@parc.parallel(name="chaos.Fragile", sync_methods=["get"])
class Fragile:
    """Stateful, NOT restartable: node death must surface NodeLostError."""

    def __init__(self):
        self.count = 0

    def get(self):
        self.count += 1
        return self.count


def _wait_for(predicate, timeout_s=8.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


def _grain_on(pos, authority):
    """POs among *pos* whose IO lives at *authority* (scheme-less)."""
    return [
        po
        for po in pos
        if po._parc_grain.home_authority() == authority
    ]


def _authority_of(node):
    return node.base_uri.split("://", 1)[1]


@pytest.fixture
def chaos_runtime():
    controller = ChaosController(seed=7)
    rt = parc.init(
        ParcConfig(
            nodes=3,
            channel="chaos+tcp",
            heartbeat_s=0.05,
            chaos_controller=controller,
            scheduler=SchedulerConfig(grain=GrainPolicy()),
        )
    )
    try:
        yield rt, controller
    finally:
        parc.shutdown()


class TestSelfHealingFarm:
    def test_kill_one_of_three_mid_farm_respawns_and_completes(
        self, chaos_runtime
    ):
        rt, controller = chaos_runtime
        workers = [parc.new(Square) for _ in range(6)]
        victim = rt.cluster.nodes[1]
        victim_authority = _authority_of(victim)
        assert _grain_on(workers, victim_authority), (
            "round-robin placement should put workers on every node"
        )

        # First half of the farm: all nodes alive.
        results = [workers[i % len(workers)].compute(i) for i in range(12)]
        assert results == [i * i for i in range(12)]

        # Mid-farm: node 1 dies for real, and the chaos controller
        # blackholes its authority so even connect attempts fail fast.
        controller.kill(victim.base_uri)
        victim.close()

        # Second half: every call still completes correctly — grains that
        # lived on the dead node are respawned on survivors.
        results = [workers[i % len(workers)].compute(i) for i in range(12, 24)]
        assert results == [i * i for i in range(12, 24)]

        # Every surviving grain now lives off the dead node.
        assert not _grain_on(workers, victim_authority)

        # The failure detector recorded the event.
        metrics = rt.cluster.metrics
        assert _wait_for(
            lambda: metrics.snapshot().get("cluster.node_down", 0) >= 1
        ), "heartbeat detector never declared the node dead"
        assert metrics.snapshot().get("cluster.grain_respawned", 0) >= 1
        for worker in workers:
            worker.parc_release()

    def test_detector_respawns_without_any_call(self, chaos_runtime):
        rt, controller = chaos_runtime
        workers = [parc.new(Square) for _ in range(6)]
        victim = rt.cluster.nodes[2]
        victim_authority = _authority_of(victim)
        moved = _grain_on(workers, victim_authority)
        assert moved
        controller.kill(victim.base_uri)
        victim.close()
        # No application call touches the dead node: the heartbeat loop
        # alone must notice and proactively relocate the grains.
        assert _wait_for(
            lambda: not _grain_on(workers, victim_authority)
        ), "proactive respawn never happened"
        for index, worker in enumerate(workers):
            assert worker.compute(index) == index * index
        for worker in workers:
            worker.parc_release()

    def test_non_restartable_grain_raises_node_lost(self, chaos_runtime):
        rt, controller = chaos_runtime
        fragiles = [parc.new(Fragile) for _ in range(3)]
        victim = rt.cluster.nodes[1]
        victim_authority = _authority_of(victim)
        doomed = _grain_on(fragiles, victim_authority)
        assert doomed
        controller.kill(victim.base_uri)
        victim.close()
        started = time.monotonic()
        with pytest.raises(NodeLostError, match="not restartable"):
            for po in doomed:
                po.get()
        assert time.monotonic() - started < 10.0, "NodeLostError too slow"
        # And it keeps failing fast — the grain is poisoned, not retried.
        with pytest.raises(NodeLostError):
            doomed[0].get()
        assert rt.cluster.metrics.snapshot().get("cluster.grain_lost", 0) >= 1
        survivors = [po for po in fragiles if po not in doomed]
        for po in survivors:
            assert po.get() == 1  # untouched grains still work
            po.parc_release()

    def test_scripted_drop_window_recovers(self, chaos_runtime):
        rt, controller = chaos_runtime
        workers = [parc.new(Square) for _ in range(6)]
        target = rt.cluster.nodes[2]
        target_authority = _authority_of(target)
        assert _grain_on(workers, target_authority)
        # Scenario verb: "100% drop for this node for 400ms".  The node
        # is NOT actually dead — but from the outside it is
        # indistinguishable from dead, so grains relocate and the
        # workload keeps completing.
        controller.drop_for(0.4, rate=1.0, authority=target_authority)
        results = [workers[i % len(workers)].compute(i) for i in range(12)]
        assert results == [i * i for i in range(12)]
        # Once the window expires, the heartbeat loop notices the node
        # answering again and welcomes it back (node_up transition).
        metrics = rt.cluster.metrics
        assert _wait_for(
            lambda: metrics.snapshot().get("cluster.node_up", 0) >= 1
        ), "recovered node never marked alive again"
        for worker in workers:
            worker.parc_release()


class TestGossip:
    def test_verdict_reaches_non_probing_peers(self, chaos_runtime):
        rt, controller = chaos_runtime
        victim = rt.cluster.nodes[1]
        controller.kill(victim.base_uri)
        victim.close()
        # Every surviving OM converges on the verdict — via its own
        # probes or via gossip from whoever noticed first.
        survivors = [rt.cluster.nodes[0], rt.cluster.nodes[2]]
        assert _wait_for(
            lambda: all(
                victim.base_uri in node.om.dead_nodes() for node in survivors
            )
        ), "node-down verdict did not propagate to all survivors"


class TestClusterCloseOrdering:
    @pytest.mark.parametrize("kind", ["tcp", "aio"])
    def test_in_flight_call_fails_fast_on_close(self, kind):
        """Regression: closing mid-call errors out instead of hanging."""

        @parc.parallel(
            name=f"chaos.Sleeper[{kind}]", sync_methods=["nap"]
        )
        class Sleeper:
            def nap(self, seconds):
                time.sleep(seconds)
                return "rested"

        rt = parc.init(
            ParcConfig(
                nodes=2,
                channel=kind,
                scheduler=SchedulerConfig(grain=GrainPolicy()),
            )
        )
        outcome = {}
        try:
            remote_authority = _authority_of(rt.cluster.nodes[1])
            for _ in range(8):  # round-robin: land on the remote node
                sleeper = parc.new(Sleeper)
                if sleeper._parc_grain.home_authority() == remote_authority:
                    break
                sleeper.parc_release()
            else:
                pytest.fail("could not place a grain on the remote node")

            def long_call():
                started = time.monotonic()
                try:
                    outcome["result"] = sleeper.nap(30.0)
                except ParcError as exc:
                    outcome["error"] = exc
                outcome["elapsed"] = time.monotonic() - started

            caller = threading.Thread(target=long_call, daemon=True)
            caller.start()
            time.sleep(0.3)  # let the call get onto the wire
        finally:
            parc.shutdown()
        caller.join(timeout=10.0)
        assert not caller.is_alive(), "in-flight call hung across close()"
        assert "error" in outcome, f"call should have failed: {outcome}"
        assert outcome["elapsed"] < 10.0

    def test_new_calls_after_close_raise_channel_closed(self):
        rt = parc.init(
            ParcConfig(
                nodes=2,
                channel="tcp",
                scheduler=SchedulerConfig(grain=GrainPolicy()),
            )
        )
        channel = rt.cluster.client_channel
        authority = _authority_of(rt.cluster.nodes[1])
        parc.shutdown()
        with pytest.raises(ChannelClosedError):
            channel.call(authority, "om", b"")


def _chaos_workload(seed, channel="chaos+loopback"):
    """Random-fault workload: correct answers or ParcError, never a hang."""
    plan = plan_from_percentages(
        seed=seed,
        connect_refused=0.03,
        send_drop=0.03,
        latency=0.05,
        recv_drop=0.03,
        disconnect=0.03,
        truncate=0.03,
        latency_s=(0.0005, 0.002),
    )
    parc.init(
        ParcConfig(
            nodes=2,
            channel=channel,
            chaos_plan=plan,
            scheduler=SchedulerConfig(grain=GrainPolicy()),
        )
    )
    completed = faulted = 0
    try:
        for i in range(40):
            try:
                worker = parc.new(Square)
            except ParcError:
                faulted += 1
                continue
            try:
                assert worker.compute(i) == i * i, "corrupt result"
                completed += 1
            except ParcError:
                faulted += 1
            try:
                worker.parc_release()
            except ParcError:
                pass
    finally:
        parc.shutdown()
    return completed, faulted


class TestSeededChaosWorkload:
    FIXED_SEEDS = (7, 1337, 20260806)

    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_fixed_seed_workload(self, seed):
        completed, _faulted = _chaos_workload(seed)
        assert completed > 0, "every single call faulted; rates are modest"

    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_fixed_seed_workload_over_shm(self, seed):
        """Fault injection composes over the shared-memory transport."""
        completed, _faulted = _chaos_workload(seed, channel="chaos+shm")
        assert completed > 0, "every single call faulted; rates are modest"

    def test_random_seed_workload(self):
        env = os.environ.get("PARC_CHAOS_SEED")
        seed = int(env) if env else random.SystemRandom().randrange(2**32)
        # Echoed so a CI failure is reproducible from the log alone.
        print(f"chaos seed: {seed} (rerun with PARC_CHAOS_SEED={seed})")
        completed, faulted = _chaos_workload(seed)
        assert completed + faulted == 40 or completed > 0
