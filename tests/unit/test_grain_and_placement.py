"""Unit tests for grain policies, the adaptive controller, and placement."""

from __future__ import annotations

import pytest

from repro.core.grain import AdaptiveGrainController, GrainDecision, GrainPolicy
from repro.cluster.placement import (
    LeastLoadedPlacement,
    RandomPlacement,
    RoundRobinPlacement,
    make_placement,
)
from repro.errors import GrainError, PlacementError


class TestGrainPolicy:
    def test_static_decision(self):
        policy = GrainPolicy(agglomerate=False, max_calls=8)
        decision = policy.decide("any.Class")
        assert decision == GrainDecision(agglomerate=False, max_calls=8)

    def test_validation(self):
        with pytest.raises(GrainError):
            GrainPolicy(max_calls=0)
        with pytest.raises(GrainError):
            GrainDecision(agglomerate=False, max_calls=0)

    def test_defaults_no_adaptation(self):
        decision = GrainPolicy().decide("x")
        assert not decision.agglomerate
        assert decision.max_calls == 1


class TestAdaptiveController:
    def make(self, **kwargs):
        defaults = dict(
            overhead_s=1e-3,
            pack_factor=4.0,
            agglomerate_factor=0.25,
            max_calls_cap=64,
            min_samples=4,
            bootstrap_max_calls=2,
        )
        defaults.update(kwargs)
        return AdaptiveGrainController(**defaults)

    def test_bootstrap_before_samples(self):
        controller = self.make()
        decision = controller.decide("cls")
        assert not decision.agglomerate
        assert decision.max_calls == 2

    def test_cheap_methods_get_packed(self):
        controller = self.make()
        for _ in range(10):
            controller.observe_execution("cls", 100e-6)  # 0.1ms << 1ms
        decision = controller.decide("cls")
        assert decision.max_calls == 40  # ceil(4 * 1ms / 0.1ms)

    def test_expensive_methods_not_packed(self):
        controller = self.make()
        for _ in range(10):
            controller.observe_execution("cls", 50e-3)
        decision = controller.decide("cls")
        assert decision.max_calls == 1
        assert not decision.agglomerate

    def test_tiny_methods_agglomerated(self):
        controller = self.make()
        for _ in range(10):
            controller.observe_execution("cls", 1e-6)
        decision = controller.decide("cls")
        assert decision.agglomerate  # 64 * 1us << 0.25 * 1ms

    def test_max_calls_capped(self):
        controller = self.make(max_calls_cap=16, agglomerate_factor=0.0001)
        for _ in range(10):
            controller.observe_execution("cls", 1e-6)
        assert controller.decide("cls").max_calls == 16

    def test_classes_tracked_independently(self):
        controller = self.make()
        for _ in range(10):
            controller.observe_execution("fast", 1e-6)
            controller.observe_execution("slow", 1.0)
        assert controller.decide("fast").agglomerate
        assert not controller.decide("slow").agglomerate

    def test_ewma_adapts_to_change(self):
        controller = self.make(ewma_alpha=0.5)
        for _ in range(10):
            controller.observe_execution("cls", 1e-6)
        for _ in range(20):
            controller.observe_execution("cls", 0.1)
        avg, _samples = controller.stats_for("cls")
        assert avg > 0.05  # forgot the old cheap samples

    def test_merge_remote_stats(self):
        controller = self.make()
        controller.merge_remote_stats("cls", avg_exec_s=2e-3, samples=10)
        avg, samples = controller.stats_for("cls")
        assert avg == pytest.approx(2e-3)
        assert samples == 10
        # Weighted merge with local observations.
        controller.merge_remote_stats("cls", avg_exec_s=4e-3, samples=10)
        avg, samples = controller.stats_for("cls")
        assert avg == pytest.approx(3e-3)
        assert samples == 20

    def test_merge_zero_samples_ignored(self):
        controller = self.make()
        controller.merge_remote_stats("cls", avg_exec_s=1.0, samples=0)
        assert controller.stats_for("cls") == (0.0, 0)

    def test_negative_time_rejected(self):
        with pytest.raises(GrainError):
            self.make().observe_execution("cls", -1.0)

    def test_validation(self):
        with pytest.raises(GrainError):
            AdaptiveGrainController(overhead_s=0)
        with pytest.raises(GrainError):
            AdaptiveGrainController(max_calls_cap=0)


def view_of(loads):
    """Shorthand: a ClusterView from per-node loads."""
    from repro.sched import ClusterView

    return ClusterView.from_loads(loads)


class TestPlacement:
    def test_round_robin_cycles(self):
        policy = RoundRobinPlacement()
        view = view_of([0.0, 0.0, 0.0])
        chosen = [policy.choose(view, 0) for _ in range(7)]
        assert chosen == [0, 1, 2, 0, 1, 2, 0]

    def test_round_robin_survives_resize(self):
        policy = RoundRobinPlacement()
        policy.choose(view_of([0.0] * 5), 0)
        assert policy.choose(view_of([0.0, 0.0]), 0) in (0, 1)

    def test_least_loaded_picks_minimum(self):
        policy = LeastLoadedPlacement()
        assert policy.choose(view_of([3.0, 1.0, 2.0]), 0) == 1

    def test_least_loaded_tie_lowest_index(self):
        policy = LeastLoadedPlacement()
        assert policy.choose(view_of([1.0, 1.0, 2.0]), 0) == 0

    def test_least_loaded_avoids_dead_nodes(self):
        policy = LeastLoadedPlacement()
        assert policy.choose(view_of([float("inf"), 5.0]), 0) == 1

    def test_random_seeded_reproducible(self):
        first = RandomPlacement(seed=42)
        second = RandomPlacement(seed=42)
        view = view_of([0.0] * 4)
        assert [first.choose(view, 0) for _ in range(10)] == [
            second.choose(view, 0) for _ in range(10)
        ]

    def test_random_in_range(self):
        policy = RandomPlacement(seed=1)
        view = view_of([0.0] * 3)
        for _ in range(50):
            assert 0 <= policy.choose(view, 0) < 3

    def test_empty_loads_rejected(self):
        for policy in (
            RoundRobinPlacement(),
            LeastLoadedPlacement(),
            RandomPlacement(),
        ):
            with pytest.raises(PlacementError):
                policy.choose(view_of([]), 0)

    def test_factory(self):
        assert isinstance(make_placement("round_robin"), RoundRobinPlacement)
        assert isinstance(make_placement("least_loaded"), LeastLoadedPlacement)
        assert isinstance(make_placement("random", seed=3), RandomPlacement)
        with pytest.raises(PlacementError, match="unknown"):
            make_placement("fifo")
