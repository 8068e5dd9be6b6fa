"""Unit tests: fault plans, the chaos controller, FaultyChannel."""

from __future__ import annotations

import threading

import pytest

from repro.channels import LoopbackChannel
from repro.chaos import (
    ChaosController,
    FaultKind,
    FaultPlan,
    FaultyChannel,
    plan_from_percentages,
)
from repro.chaos.controller import strip_scheme
from repro.errors import ChannelError, FaultInjectedError
from repro.executor import timer
from repro.telemetry import MetricsRegistry


class TestFaultPlan:
    def test_zero_fault_plan_never_injects(self):
        plan = FaultPlan(seed=1)
        for _ in range(500):
            assert plan.draw().kind is FaultKind.NONE
        assert plan.injected == 0
        assert plan.draws == 500

    def test_same_seed_same_schedule(self):
        make = lambda: plan_from_percentages(  # noqa: E731
            seed=1337, send_drop=0.2, latency=0.1, truncate=0.1
        )
        first = [make().draw().kind for _ in [0]]  # noqa: F841 - warm check
        a = make()
        b = make()
        seq_a = [a.draw().kind for _ in range(200)]
        seq_b = [b.draw().kind for _ in range(200)]
        assert seq_a == seq_b
        assert a.injected == b.injected > 0

    def test_different_seed_different_schedule(self):
        a = plan_from_percentages(seed=1, send_drop=0.3)
        b = plan_from_percentages(seed=2, send_drop=0.3)
        assert [a.draw().kind for _ in range(100)] != [
            b.draw().kind for _ in range(100)
        ]

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(rates={FaultKind.SEND_DROP: 1.5})
        with pytest.raises(ValueError):
            FaultPlan(
                rates={FaultKind.SEND_DROP: 0.7, FaultKind.RECV_DROP: 0.7}
            )
        with pytest.raises(ValueError):
            FaultPlan(rates={"send_drop": 0.1})  # type: ignore[dict-item]

    def test_max_faults_caps_injection(self):
        plan = plan_from_percentages(seed=3, send_drop=1.0, max_faults=5)
        kinds = [plan.draw().kind for _ in range(50)]
        assert kinds.count(FaultKind.SEND_DROP) == 5
        assert all(k is FaultKind.NONE for k in kinds[5:])

    def test_latency_materialized_within_range(self):
        plan = plan_from_percentages(
            seed=4, latency=1.0, latency_s=(0.001, 0.002)
        )
        for _ in range(50):
            decision = plan.draw()
            assert decision.kind is FaultKind.LATENCY
            assert 0.001 <= decision.latency_s <= 0.002

    def test_truncate_keeps_strict_prefix(self):
        plan = plan_from_percentages(seed=5, truncate=1.0)
        for _ in range(50):
            decision = plan.draw(response_size_hint=32)
            assert decision.kind is FaultKind.TRUNCATE
            assert 0 <= decision.truncate_to < 32

    def test_describe_mentions_seed(self):
        plan = plan_from_percentages(seed=99, recv_drop=0.25)
        text = plan.describe()
        assert "99" in text and "recv_drop" in text


class TestChaosController:
    def test_kill_and_revive(self):
        controller = ChaosController()
        controller.kill("tcp://127.0.0.1:9999")
        assert controller.is_killed("127.0.0.1:9999")
        decision = controller.decide("127.0.0.1:9999")
        assert decision is not None
        assert decision.kind is FaultKind.CONNECT_REFUSED
        assert controller.decide("127.0.0.1:8888") is None
        controller.revive("127.0.0.1:9999")
        assert controller.decide("127.0.0.1:9999") is None

    def test_strip_scheme(self):
        assert strip_scheme("chaos+tcp://h:1/om") == "h:1"
        assert strip_scheme("h:1") == "h:1"

    def test_drop_window_expires(self):
        now = [0.0]
        controller = ChaosController(clock=lambda: now[0])
        controller.drop_for(0.5, rate=1.0)
        assert controller.decide("a:1").kind is FaultKind.SEND_DROP
        now[0] = 0.6
        assert controller.decide("a:1") is None

    def test_drop_window_targets_authority(self):
        controller = ChaosController(clock=lambda: 0.0)
        controller.drop_for(1.0, rate=1.0, authority="tcp://a:1")
        assert controller.decide("a:1") is not None
        assert controller.decide("b:2") is None

    def test_scripted_kill_after(self):
        import threading

        controller = ChaosController()
        fired = threading.Event()
        original_kill = controller.kill

        def kill_and_signal(authority):
            original_kill(authority)
            fired.set()

        controller.kill = kill_and_signal  # type: ignore[method-assign]
        controller.kill_after(0.01, "n:1")
        assert fired.wait(2.0)
        assert controller.is_killed("n:1")
        controller.close()

    def test_fired_actions_are_not_retained(self):
        controller = ChaosController()
        for index in range(50):
            controller.kill_after(0.0, f"n:{index}")
        # Callbacks run in deadline order, ties in arm order: once this
        # one has run, every kill armed before it has fired.
        fired = threading.Event()
        timer().call_later(0.0, fired.set)
        assert fired.wait(5)
        assert len(controller.killed_authorities()) == 50
        assert not controller._timers
        controller.close()

    def test_close_cancels_timers(self):
        controller = ChaosController()
        controller.kill_after(30.0, "never:1")
        controller.close()
        assert not controller.is_killed("never:1")
        with pytest.raises(RuntimeError):
            controller.at(0.1, lambda: None)


def _echo_pair(plan=None, controller=None, metrics=None):
    channel = FaultyChannel(
        LoopbackChannel(), plan=plan, controller=controller, metrics=metrics
    )
    binding = channel.listen("auto", lambda path, body, headers: body.upper())
    return channel, binding


class TestFaultyChannel:
    def test_scheme_is_prefixed(self):
        channel = FaultyChannel(LoopbackChannel())
        assert channel.scheme == "chaos+loopback"

    def test_zero_fault_passthrough(self):
        channel, binding = _echo_pair()
        assert channel.call(binding.authority, "p", b"hi") == b"HI"

    def test_pre_call_faults_never_reach_server(self):
        seen = []
        channel = FaultyChannel(
            LoopbackChannel(),
            plan=plan_from_percentages(seed=1, send_drop=1.0),
        )
        binding = channel.listen(
            "auto", lambda path, body, headers: seen.append(body) or b"ok"
        )
        with pytest.raises(FaultInjectedError):
            channel.call(binding.authority, "p", b"x")
        assert seen == []

    def test_post_call_faults_execute_server_side(self):
        seen = []
        channel = FaultyChannel(
            LoopbackChannel(),
            plan=plan_from_percentages(seed=1, recv_drop=1.0),
        )
        binding = channel.listen(
            "auto", lambda path, body, headers: seen.append(body) or b"ok"
        )
        with pytest.raises(FaultInjectedError):
            channel.call(binding.authority, "p", b"x")
        assert seen == [b"x"]  # at-most-once ambiguity, reproduced

    def test_truncate_returns_strict_prefix(self):
        channel, binding = _echo_pair(
            plan=plan_from_percentages(seed=2, truncate=1.0)
        )
        response = channel.call(binding.authority, "p", b"abcdefgh")
        assert response != b"ABCDEFGH"
        assert b"ABCDEFGH".startswith(response)

    def test_controller_overrides_plan(self):
        controller = ChaosController()
        channel, binding = _echo_pair(controller=controller)
        controller.kill(binding.authority)
        with pytest.raises(FaultInjectedError, match="refused"):
            channel.call(binding.authority, "p", b"x")
        controller.revive(binding.authority)
        assert channel.call(binding.authority, "p", b"ok") == b"OK"

    def test_injection_counted_in_metrics(self):
        metrics = MetricsRegistry()
        channel, binding = _echo_pair(
            plan=plan_from_percentages(seed=1, disconnect=1.0),
            metrics=metrics,
        )
        with pytest.raises(FaultInjectedError):
            channel.call(binding.authority, "p", b"x")
        assert metrics.snapshot()["chaos.injected.disconnect"] == 1

    def test_fault_injected_error_is_channel_error(self):
        assert issubclass(FaultInjectedError, ChannelError)
