"""Unit tests for the adaptive scheduler: views, policies, planner,
scheduler config and the mailbox migration primitives."""

from __future__ import annotations

import time

import pytest

from repro.cluster.placement import (
    LeastLoadedPlacement,
    LocalityAwarePlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    coerce_policy,
    make_placement,
)
from repro.core.impl import ImplementationObject
from repro.errors import PlacementError, ScooppError
from repro.sched import (
    ClusterView,
    NodeView,
    PlannedMove,
    RebalancePlanner,
    SchedulerConfig,
)
from tests.entries import post

INF = float("inf")


# -- cluster views ------------------------------------------------------------


class TestClusterView:
    def test_from_loads_marks_inf_dead(self):
        view = ClusterView.from_loads([1.0, INF, 3.0])
        assert [n.alive for n in view.nodes] == [True, False, True]
        assert [n.index for n in view.live()] == [0, 2]


# -- policies on the new view API ---------------------------------------------


def make_view(*nodes: NodeView) -> ClusterView:
    return ClusterView(nodes=tuple(nodes))


class TestLocalityAwarePlacement:
    def test_no_byte_evidence_degenerates_to_least_loaded(self):
        policy = LocalityAwarePlacement()
        view = ClusterView.from_loads([3.0, 1.0, 2.0])
        assert policy.choose(view, 0) == 1

    def test_skips_dead_nodes(self):
        policy = LocalityAwarePlacement()
        view = make_view(
            NodeView(index=0, base_uri="n0", alive=False, load=0.0),
            NodeView(index=1, base_uri="n1", load=9.0),
        )
        assert policy.choose(view, 0) == 1

    def test_factory_knows_locality(self):
        assert isinstance(make_placement("locality"), LocalityAwarePlacement)

    def test_bad_factors_rejected(self):
        with pytest.raises(PlacementError):
            LocalityAwarePlacement(service_scale_s=0)


class TestRoundRobinSkipsDead:
    def test_cycles_live_only(self):
        policy = RoundRobinPlacement()
        view = ClusterView.from_loads([0.0, INF, 0.0])
        assert [policy.choose(view, 0) for _ in range(4)] == [0, 2, 0, 2]


# -- coercion ------------------------------------------------------------------


class TestCoercePolicy:
    def test_passthrough_and_names(self):
        policy = LeastLoadedPlacement()
        assert coerce_policy(policy) is policy
        assert isinstance(coerce_policy("locality"), LocalityAwarePlacement)

    def test_anything_else_is_a_placement_error(self):
        class ChoosesButIsNoPolicy:
            def choose(self, loads, home_index):
                return 0

        with pytest.raises(PlacementError, match="PlacementPolicy"):
            coerce_policy(object())
        with pytest.raises(PlacementError, match="PlacementPolicy"):
            coerce_policy(ChoosesButIsNoPolicy())
        with pytest.raises(PlacementError, match="unknown placement"):
            coerce_policy("no_such_policy")

    def test_subclass_passes_through(self):
        class Pinned(PlacementPolicy):
            name = "pinned"

            def choose(self, view, home_index):
                return self._live(view)[0].index

        assert coerce_policy(Pinned()).choose(
            ClusterView.from_loads([INF, 2.0]), 0
        ) == 1


# -- planner ------------------------------------------------------------------


def report(uri, queued, grains=(), alive=True):
    return {
        "base_uri": uri,
        "alive": alive,
        "queued": queued,
        "grains": list(grains),
    }


def grain(path, backlog):
    return {"path": path, "class_name": "C", "backlog": backlog}


def planner(**kwargs) -> RebalancePlanner:
    defaults = dict(
        work_stealing=True,
        steal_threshold=8,
        idle_threshold=2,
        imbalance_ratio=1.5,
        migration_cooldown_s=2.0,
    )
    defaults.update(kwargs)
    return RebalancePlanner(SchedulerConfig(**defaults))


class TestRebalancePlanner:
    def test_balanced_cluster_plans_nothing(self):
        p = planner()
        reports = [report("n0", 10), report("n1", 10)]
        assert p.plan(reports, 0.0) == []

    def test_steals_largest_grain_fitting_the_gap(self):
        p = planner()
        reports = [
            report(
                "n0",
                12,
                [grain("a", 5), grain("b", 4), grain("c", 3)],
            ),
            report("n1", 0),
        ]
        moves = p.plan(reports, 0.0)
        # "a" (5) fits: 0+5 <= 12-5; afterwards 5+4 > 7-4 pins the rest.
        assert [(m.path, m.victim_uri, m.target_uri) for m in moves] == [
            ("a", "n0", "n1")
        ]
        assert moves[0].kind == "steal"  # target was idle (0 <= 2)

    def test_busy_but_below_mean_target_is_rebalance(self):
        p = planner(imbalance_ratio=1.1)
        reports = [
            report("n0", 12, [grain("a", 5), grain("b", 4)]),
            report("n1", 4),
        ]
        moves = p.plan(reports, 0.0)
        assert len(moves) == 1
        assert moves[0].path == "b"  # "a" (5): 4+5 > 12-5, too big to move
        assert moves[0].kind == "rebalance"

    def test_grain_bigger_than_gap_never_relocates_the_hot_spot(self):
        p = planner()
        reports = [
            report("n0", 12, [grain("hot", 12)]),
            report("n1", 0),
        ]
        assert p.plan(reports, 0.0) == []

    def test_cooldown_prevents_ping_pong(self):
        p = planner()
        reports = [
            report("n0", 12, [grain("a", 5)]),
            report("n1", 0),
        ]
        assert [m.path for m in p.plan(reports, 0.0)] == ["a"]
        # Same (stale) reports inside the cooldown window: "a" is pinned.
        assert p.plan(reports, 0.5) == []
        # After the cooldown expires it may move again.
        assert [m.path for m in p.plan(reports, 3.0)] == ["a"]

    def test_dead_nodes_are_neither_victims_nor_targets(self):
        p = planner()
        reports = [
            report("n0", 12, [grain("a", 5)], alive=False),
            report("n1", 0),
        ]
        assert p.plan(reports, 0.0) == []
        reports = [
            report("n0", 12, [grain("a", 5)]),
            report("n1", 0, alive=False),
            report("n2", 0),
        ]
        moves = p.plan(reports, 0.0)
        assert [m.target_uri for m in moves] == ["n2"]

    def test_max_migrations_per_cycle(self):
        p = planner(max_migrations_per_cycle=1, imbalance_ratio=1.0001)
        reports = [
            report("n0", 20, [grain("a", 4), grain("b", 4), grain("c", 4)]),
            report("n1", 0),
        ]
        assert len(p.plan(reports, 0.0)) == 1

    def test_single_node_cluster_is_a_no_op(self):
        assert planner().plan([report("n0", 100)], 0.0) == []


# -- scheduler config --------------------------------------------------------


class TestSchedulerConfig:
    def test_validation(self):
        with pytest.raises(ScooppError):
            SchedulerConfig(rebalance_interval_s=0)
        with pytest.raises(ScooppError):
            SchedulerConfig(steal_threshold=0)
        with pytest.raises(ScooppError):
            SchedulerConfig(imbalance_ratio=0.5)
        with pytest.raises(ScooppError):
            SchedulerConfig(max_migrations_per_cycle=0)


# -- mailbox migration primitives ---------------------------------------------


class SlowCounter:
    def __init__(self):
        self.seen = []

    def work(self, i):
        time.sleep(0.005)
        self.seen.append(i)

    def count(self):
        return len(self.seen)


class TestMailboxMigration:
    def test_begin_abort_loses_nothing(self):
        impl = ImplementationObject(SlowCounter(), "SlowCounter")
        try:
            for i in range(20):
                post(impl, "work", (i,), {})
            entries = impl.begin_migration()
            extracted = sum(len(batch) for batch in entries)
            executed = len(impl.instance.seen)
            # The executing batch finished on the victim; the rest were
            # extracted — nothing is both, nothing is neither.
            assert extracted + executed == 20
            assert impl.stats()["queued"] == 0
            impl.abort_migration(entries)
            impl.drain()
            assert impl.instance.seen == list(range(20))
        finally:
            impl.dispose()

    def test_complete_migration_forwards_to_new_home(self):
        victim = ImplementationObject(SlowCounter(), "SlowCounter")
        target = ImplementationObject(SlowCounter(), "SlowCounter")
        try:
            entries = victim.begin_migration()
            assert entries == []
            victim.complete_migration(target)
            assert victim.migrated
            # Stragglers that still hold the old IO keep working: async
            # calls forward into the new mailbox, sync calls relay.
            post(victim, "work", (1,), {})
            assert victim.invoke("count", (), {}) == 1
            assert target.instance.seen == [1]
        finally:
            target.dispose()

    def test_stats_reports_migrated(self):
        impl = ImplementationObject(SlowCounter(), "SlowCounter")
        target = ImplementationObject(SlowCounter(), "SlowCounter")
        try:
            assert impl.stats()["migrated"] is False
            impl.begin_migration()
            impl.complete_migration(target)
            assert impl.stats()["migrated"] is True
        finally:
            target.dispose()
