"""The control plane's real state machines, stepped in virtual time.

The real :class:`ControlPlane`, :class:`ElasticController`,
:class:`RebalancePlanner` and :class:`ObjectManager` (detector memory,
dead set, placement) run over *scripted* nodes: a node here is a dict of
grain backlogs plus an ``alive`` flag, and "the wire" is a method call
that raises :class:`ChannelError` when the peer is scripted dead.  Time
is a :class:`VirtualClock`; nothing sleeps.

Invariants, checked after **every** tick of every scenario
(:meth:`Sim.check`):

1. the worker count stays inside the elastic ``(min, max)``;
2. no grain is planned twice inside ``migration_cooldown_s``;
3. neither end of a planned move was unreachable in the observation
   that planned it, and after a detector round no live OM places a
   grain on a scripted-dead node;
4. one detector round delivers its verdicts to every live OM;
5. a raising duty never shifts another duty's due times.

Scenario-specific bounds (convergence, scale-out/in latency) are stated
in the tests.  Seeds follow the chaos suite: three fixed ones plus
``PARC_CHAOS_SEED``.  Unset, the fourth is :data:`DEFAULT_EXTRA_SEED`,
so a plain run collects the same test ids every time; CI's random-seed
job sets ``PARC_CHAOS_SEED`` to explore new schedules.
"""

from __future__ import annotations

import os
import random
import threading

import pytest

import repro.core as parc
from repro.chaos import ChaosController
from repro.cluster.control import ELASTIC_INTERVAL_S, ControlPlane, ErrorCounter
from repro.cluster.node import REPORT_TOP_GRAINS, ObjectManager
from repro.cluster.placement import make_placement
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.errors import ChannelError
from repro.flow import ElasticController, ElasticPolicy
from repro.perfmodel.clock import VirtualClock
from repro.remoting import Delegate
from repro.sched import RebalancePlanner
from repro.telemetry import MetricsRegistry

FIXED_SEEDS = (7, 1337, 20260806)
DEFAULT_EXTRA_SEED = 2594377432
HEARTBEAT_S = 0.5
STEP_S = 0.25  # the rebalance interval: every duty's period is a multiple

SCHED = SchedulerConfig(
    work_stealing=True,
    rebalance_interval_s=STEP_S,
    steal_threshold=8,
    idle_threshold=2,
    imbalance_ratio=1.5,
    migration_cooldown_s=2.0,
)
BOUNDS = (1, 4)


def _seeds():
    env = os.environ.get("PARC_CHAOS_SEED")
    extra = int(env) if env else DEFAULT_EXTRA_SEED
    return [*FIXED_SEEDS, pytest.param(extra, id=f"seed-{extra}")]


class Wire:
    """A remote proxy to a scripted node's ``/om``."""

    def __init__(self, peer: "FakeNode") -> None:
        self._peer = peer

    def __getattr__(self, name):
        def call(*args):
            if not self._peer.alive:
                raise ChannelError(f"{self._peer.base_uri} is unreachable")
            return getattr(self._peer.om, name)(*args)

        return call


class FakeNode:
    """A scripted node: grain backlogs in, the real row shape out."""

    def __init__(self, sim: "Sim", index: int) -> None:
        self.sim = sim
        self.index = index
        self.base_uri = f"fake://n{index}"
        self.alive = True
        self.backlogs: dict[str, int] = {}
        self.om = ObjectManager(
            self, GrainPolicy(), make_placement("least_loaded"), sim.metrics
        )

    def make_proxy(self, uri: str) -> Wire:
        return Wire(self.sim.by_uri[uri.rsplit("/", 1)[0]])

    def report(self) -> dict:
        queued = sum(self.backlogs.values())
        grains = sorted(
            (
                {"path": path, "class_name": "C", "backlog": n}
                for path, n in self.backlogs.items()
                if n
            ),
            key=lambda g: g["backlog"],
            reverse=True,
        )
        return {
            "index": self.index,
            "base_uri": self.base_uri,
            "load": float(len(self.backlogs) + queued),
            "ios": len(self.backlogs),
            "created_total": len(self.backlogs),
            "queued": queued,
            "processed": 0,
            "shed": 0,
            "async_failures": 0,
            "avg_service_s": 0.0,
            "p99_s": 0.0,
            "methods": {},
            "grains": grains[:REPORT_TOP_GRAINS],
            "migrations_out": 0,
            "migrations_in": 0,
            "migration_failures": 0,
            "calls_moved": 0,
            "steals": 0,
        }

    def drain(self, calls: int) -> None:
        """Execute *calls* queued calls, round-robin over the grains."""
        while calls > 0 and any(self.backlogs.values()):
            for path, n in self.backlogs.items():
                if n and calls > 0:
                    self.backlogs[path] = n - 1
                    calls -= 1


class Sim:
    """Scripted nodes behind the port :class:`ControlPlane` acts on.

    Node 0 is the home node (the observer; it never dies); nodes past
    ``fixed`` are the elastic "workers".
    """

    def __init__(self, seed: int, fixed: int, workers: int = 0, **duties):
        self.rng = random.Random(seed)
        self.metrics = MetricsRegistry()
        self.errors = ErrorCounter(self.metrics)
        self.clock = VirtualClock()
        self.fixed = fixed
        self.next_index = 0
        self.nodes: list[FakeNode] = []
        self.by_uri: dict[str, FakeNode] = {}
        for _ in range(fixed + workers):
            self._add_node()
        self._publish_directory()
        self.control = ControlPlane(self, clock=self.clock, **duties)
        # What the invariants read.
        self.unreachable: set[str] = set()
        self.planned: dict[str, float] = {}
        self.detect_times: list[float] = []
        self.failed_moves = 0
        self.before_move = None  # scenario hook: runs between plan and move
        self.expected_errors: set[str] = set()

    # -- the ControlPlane port --------------------------------------------

    def observe(self):
        observed = self.nodes[0].om.observe()
        self.unreachable = {o.base_uri for o in observed if not o.reachable}
        return observed

    def deliver_verdicts(self, verdicts, news):
        self.detect_times.append(self.clock.now())
        for node in self.live():
            for base_uri, alive in verdicts.items():
                if alive:
                    node.om.report_alive(base_uri)
                else:
                    node.om.report_dead(base_uri)

    def worker_count(self) -> int:
        return len(self.nodes) - self.fixed

    def scale_out(self, queued, p99):
        self._add_node()
        self._publish_directory()

    def scale_in(self, queued, p99):
        retiree = self.nodes.pop()
        del self.by_uri[retiree.base_uri]
        retiree.alive = False
        self._publish_directory()
        for node in self.live():
            node.om.note_dead(retiree.base_uri)

    def start_moves(self, moves):
        now = self.clock.now()
        for move in moves:
            # Invariant 2: the planner's own cooldown, seen from outside.
            last = self.planned.get(move.path)
            assert last is None or now - last >= SCHED.migration_cooldown_s, (
                f"{move.path} planned at {last} and again at {now}"
            )
            self.planned[move.path] = now
            # Invariant 3a: planned only between nodes that answered.
            assert move.victim_uri not in self.unreachable, move
            assert move.target_uri not in self.unreachable, move
        if self.before_move is not None and moves:
            self.before_move(moves)
        for move in moves:
            victim = self.by_uri[move.victim_uri]
            target = self.by_uri[move.target_uri]
            if not (victim.alive and target.alive):
                self.failed_moves += 1  # aborted: the grain stays put
                continue
            target.backlogs[move.path] = victim.backlogs.pop(move.path)

    # -- scripting ---------------------------------------------------------

    def _add_node(self) -> FakeNode:
        node = FakeNode(self, self.next_index)  # indices are never reused
        self.next_index += 1
        self.nodes.append(node)
        self.by_uri[node.base_uri] = node
        return node

    def _publish_directory(self) -> None:
        directory = [node.base_uri for node in self.nodes]
        for node in self.live():
            node.om.set_directory(directory)

    def live(self) -> list[FakeNode]:
        return [node for node in self.nodes if node.alive]

    def kill(self, node: FakeNode) -> None:
        node.alive = False
        node.backlogs.clear()  # its queued calls die with it

    def zipf_backlog(self, node: FakeNode, grains: int, scale: int) -> None:
        for rank in range(1, grains + 1):
            jitter = self.rng.uniform(0.8, 1.2)
            node.backlogs[f"g{rank}"] = max(2, int(scale * jitter / rank**1.2))

    def step(self, drain_per_node: int = 0) -> None:
        """Advance one STEP_S: nodes execute, the control plane ticks."""
        self.clock.advance(STEP_S)
        for node in self.live():
            node.drain(drain_per_node)
        detected = len(self.detect_times)
        self.control.tick()
        self.check(detector_ran=len(self.detect_times) > detected)

    def check(self, detector_ran: bool) -> None:
        # tick() counts what a duty raises — an invariant's
        # AssertionError inside a port method included.
        errors = {
            name
            for name in self.metrics.snapshot()
            if name.startswith("cluster.errors.")
        }
        assert errors <= self.expected_errors
        low, high = BOUNDS
        if self.control.elastic is not None:
            assert low <= self.worker_count() <= high  # invariant 1
        if not detector_ran:
            return
        dead = {n.base_uri for n in self.by_uri.values() if not n.alive}
        for node in self.live():
            # Invariant 4: one round, every live OM has every verdict.
            assert set(node.om.dead_nodes()) >= dead - {node.base_uri}
            # Invariant 3b: and so never places onto a dead node.
            for _ in range(3):
                _decision, factory_uri = node.om.decide_and_place("C")
                assert factory_uri.rsplit("/", 1)[0] not in dead

    def depths(self) -> list[int]:
        return [sum(node.backlogs.values()) for node in self.live()]


def rebalancing_sim(seed: int, nodes: int = 4) -> Sim:
    return Sim(
        seed,
        fixed=nodes,
        heartbeat_s=HEARTBEAT_S,
        planner=RebalancePlanner(SCHED),
    )


def elastic_sim(seed: int, workers: int = 1) -> Sim:
    low, high = BOUNDS
    return Sim(
        seed,
        fixed=1,
        workers=workers,
        heartbeat_s=HEARTBEAT_S,
        elastic=ElasticController(ElasticPolicy(low, high)),
    )


def test_the_scripted_row_has_the_real_rows_keys():
    with parc.session(ParcConfig(nodes=1)) as runtime:
        (real,) = runtime.stats()
    assert set(FakeNode(Sim(0, fixed=1), 9).report()) == set(real)


@pytest.mark.parametrize("seed", _seeds())
class TestVirtualTime:
    def test_zipf_backlog_converges(self, seed):
        """24 Zipf-sized grains on one of four nodes, nothing executing.

        Stated bound: within 4 rebalance cycles the planner reaches a
        fixed point (plans nothing more, cooldowns expiring included),
        and there the deepest node is within ``imbalance_ratio`` of the
        mean or holds a grain too big to move without relocating the
        hot spot.
        """
        sim = rebalancing_sim(seed)
        sim.zipf_backlog(sim.nodes[0], grains=24, scale=120)
        total, first = sum(sim.depths()), sim.depths()[0]
        for _ in range(4):
            sim.step()
        assert sum(sim.depths()) == total  # a move loses no call
        settled = dict(sim.planned)
        for _ in range(3 * int(SCHED.migration_cooldown_s / STEP_S)):
            sim.step()
        assert sim.planned == settled, "still moving after 4 cycles"
        depths = sim.depths()
        mean = sum(depths) / len(depths)
        deepest = max(sim.live(), key=lambda n: sum(n.backlogs.values()))
        biggest = max(deepest.backlogs.values())
        assert max(depths) <= max(SCHED.imbalance_ratio * mean, biggest)
        assert max(depths) < first and min(depths) > 0

    def test_flash_crowd_scales_out_and_back_in(self, seed):
        """A sustained burst far over ``queue_high`` per worker, then
        silence.

        Stated bounds, in elastic samples: the first scale-out lands
        ``out_consecutive`` samples into the burst; the maximum is
        reached after one more ``cooldown + out_consecutive`` per extra
        worker; the minimum is back within ``cooldown + in_consecutive``
        per retired worker (plus the last scale-out's cooldown) of the
        queues emptying.
        """
        sim = elastic_sim(seed)
        policy = sim.control.elastic.policy
        low, high = BOUNDS
        begin = 3.0 + sim.rng.randrange(4)
        end = begin + 20.0
        burst = 200 + sim.rng.randrange(200)
        out_s = policy.cooldown + policy.out_consecutive
        in_s = policy.cooldown + policy.in_consecutive
        reached: dict[int, float] = {}
        while sim.clock.now() < end + policy.cooldown + (high - low) * in_s:
            now = sim.clock.now()
            sim.nodes[0].backlogs["hot"] = burst if begin <= now < end else 0
            sim.step()
            if now >= end:
                reached[-sim.worker_count()] = sim.clock.now()
            else:
                reached.setdefault(sim.worker_count(), sim.clock.now())
        assert reached[low] <= begin  # calm before the burst: nothing to do
        assert reached[low + 1] == begin + policy.out_consecutive
        assert reached[high] <= begin + policy.out_consecutive + 2 * out_s
        assert sim.worker_count() == low

    def test_node_lost_mid_rebalance(self, seed):
        sim = rebalancing_sim(seed)
        sim.zipf_backlog(sim.nodes[0], grains=24, scale=120)
        lost_at = 2 + sim.rng.randrange(6)
        victim = sim.nodes[1 + sim.rng.randrange(3)]
        for tick in range(40):
            if tick == lost_at:
                sim.kill(victim)
            sim.step(drain_per_node=1)
        # Noticed within one heartbeat (check() held invariants 3 and 4
        # on every round since), and nothing ever moved there again.
        assert victim.base_uri in sim.nodes[0].om.dead_nodes()
        assert not victim.backlogs
        assert len(sim.live()) == 3 and min(sim.depths()) > 0

    def test_migration_target_dies_between_plan_and_move(self, seed):
        sim = rebalancing_sim(seed)
        sim.zipf_backlog(sim.nodes[0], grains=24, scale=120)
        doomed: list[FakeNode] = []

        def kill_first_target(moves):
            if not doomed:
                doomed.append(sim.by_uri[moves[0].target_uri])
                sim.kill(doomed[0])

        sim.before_move = kill_first_target
        total = sum(sim.depths())
        for _ in range(40):
            sim.step()
        assert doomed and sim.failed_moves >= 1
        # The aborted move left its grain serving on the victim: only
        # what had already landed on the doomed node was lost (nothing —
        # it died before its first adoption).
        assert sum(sim.depths()) == total
        assert not doomed[0].backlogs
        assert len([d for d in sim.depths() if d > 0]) == 3

    def test_scale_in_races_a_node_loss(self, seed):
        """One of the two newest workers dies right before the sample
        that retires the newest: whichever it was, the count stays in
        bounds, both are dead to every OM (checked by ``check``) and the
        idle run still walks the population down to the minimum."""
        sim = elastic_sim(seed, workers=3)
        policy = sim.control.elastic.policy
        per_sample = int(ELASTIC_INTERVAL_S / STEP_S)
        for _ in range(policy.in_consecutive * per_sample - 1):
            sim.step()
        assert sim.worker_count() == 3
        sim.kill(sim.nodes[-1 - sim.rng.randrange(2)])
        sim.step()  # detector round and retiring sample in one tick
        assert sim.worker_count() == 2
        in_s = policy.cooldown + policy.in_consecutive
        for _ in range(in_s * per_sample):
            sim.step()
        assert sim.worker_count() == 1


class TestDutyIsolation:
    def test_a_raising_duty_does_not_delay_the_others(self, caplog):
        class Broken(ElasticController):
            def observe(self, *args, **kwargs):
                raise RuntimeError("elastic sample failed")

        sim = Sim(
            0,
            fixed=2,
            workers=1,
            heartbeat_s=HEARTBEAT_S,
            elastic=Broken(ElasticPolicy(*BOUNDS)),
            planner=RebalancePlanner(SCHED),
        )
        sim.zipf_backlog(sim.nodes[0], grains=8, scale=60)
        sim.expected_errors = {"cluster.errors.elastic"}
        with caplog.at_level("WARNING", logger="repro.cluster"):
            for _ in range(16):
                sim.step()
        # Four seconds: four failed samples, counted each, logged once...
        assert sim.metrics.snapshot()["cluster.errors.elastic"] == 4
        logged = [r for r in caplog.records if r.name == "repro.cluster"]
        assert len(logged) == 1 and "elastic" in logged[0].getMessage()
        # ...while the detector kept its exact cadence and moves happened.
        assert sim.detect_times == [
            HEARTBEAT_S * k for k in range(1, 9)
        ]
        assert sim.planned

    def test_a_failing_observation_skips_the_tick_not_the_loop(self):
        sim = rebalancing_sim(0, nodes=2)
        sim.expected_errors = {"cluster.errors.observe"}
        sim.nodes[0].om.set_directory([])  # observe() now raises
        for _ in range(4):
            sim.clock.advance(STEP_S)
            sim.control.tick()
        assert sim.metrics.snapshot()["cluster.errors.observe"] == 4
        sim._publish_directory()
        sim.step()
        sim.step()
        assert sim.detect_times == [1.5]


class TestThreadCensus:
    OLD = ("parc-heartbeat", "parc-elastic", "parc-sched")

    def test_every_duty_on_is_one_thread(self):
        config = ParcConfig(
            nodes=2,
            channel="tcp",
            worker_processes=1,
            heartbeat_s=5.0,
            elastic=(1, 2),
            scheduler=SchedulerConfig(work_stealing=True),
        )
        with parc.session(config):
            names = [t.name for t in threading.enumerate()]
        assert names.count("parc-timer") == 1
        assert "parc-control" not in names
        assert not [n for n in names if n.startswith(self.OLD)]

    def test_every_timer_and_background_call_shares_two_pools(self):
        """Duties, a lease sweep, a chaos script, a delegate and a liveness
        listener, all live at once: one ``parc-timer`` thread keeps their
        time, and what blocks runs on ``parc-exec`` threads."""
        config = ParcConfig(
            nodes=2,
            channel="tcp",
            worker_processes=1,
            heartbeat_s=5.0,
            elastic=(1, 2),
            scheduler=SchedulerConfig(work_stealing=True),
        )
        release = threading.Event()
        listening = threading.Event()

        def listener(_uri):
            listening.set()
            release.wait(10)

        chaos = ChaosController()
        with parc.session(config) as runtime:
            home = runtime.cluster.home_node
            home.host.start_lease_sweeper(interval_s=30.0)
            chaos.kill_after(30.0, "never:1")
            pending = Delegate(release.wait).begin_invoke(10)
            home.om.on_node_down(listener)
            home.om.note_dead("tcp://127.0.0.1:1")
            try:
                assert listening.wait(10)
                threads = threading.enumerate()
            finally:
                release.set()
                chaos.close()
            assert pending.result(10) is True
        names = [t.name for t in threads]
        assert names.count("parc-timer") == 1
        gone = (
            "parc-control",
            "parc-delegate",
            "parc-lease-sweeper",
            "parc-liveness-event",
        )
        assert not [n for n in names if n.startswith(gone)]
        assert not [t for t in threads if isinstance(t, threading.Timer)]

    def test_a_default_cluster_runs_no_control_thread(self):
        with parc.session(ParcConfig(nodes=2)):
            names = [t.name for t in threading.enumerate()]
        assert "parc-control" not in names
        assert not [n for n in names if n.startswith(self.OLD)]
