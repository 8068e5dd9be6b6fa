"""ParcConfig and the init()/session() configuration surface."""

from __future__ import annotations

import inspect
import pickle
from dataclasses import fields

import pytest

import repro.core as parc
from repro.core import (
    GrainPolicy,
    ParcConfig,
    SchedulerConfig,
    TelemetryConfig,
)
from repro.core.config import NodeSettings
from repro.errors import NotRunningError, ScooppError


class TestParcConfig:
    def test_defaults(self):
        config = ParcConfig()
        assert config.nodes == 4
        assert config.channel == "loopback"
        assert config.scheduler is None
        assert config.worker_processes == 0
        assert config.worker_modules == ()
        assert config.heartbeat_s is None
        assert config.chaos_plan is None
        assert config.chaos_controller is None
        assert config.telemetry == TelemetryConfig()
        assert config.telemetry.enabled is False

    def test_validation(self):
        with pytest.raises(ScooppError, match="nodes"):
            ParcConfig(nodes=0)
        with pytest.raises(ScooppError, match="worker_processes"):
            ParcConfig(worker_processes=-1)
        with pytest.raises(ScooppError, match="telemetry"):
            ParcConfig(telemetry=True)  # type: ignore[arg-type]

    def test_worker_modules_normalized_to_tuple(self):
        config = ParcConfig(worker_modules=["a", "b"])
        assert config.worker_modules == ("a", "b")

    def test_field_census(self):
        """Every settable value, by name: a new knob is a diff here."""
        assert {f.name for f in fields(ParcConfig)} == {
            "nodes",
            "channel",
            "worker_processes",
            "worker_modules",
            "heartbeat_s",
            "chaos_plan",
            "chaos_controller",
            "telemetry",
            "mailbox_depth",
            "elastic",
            "scheduler",
        }

    def test_scheduler_field_census(self):
        """Every scheduling knob, by name: a new one is a diff here."""
        assert {f.name for f in fields(SchedulerConfig)} == {
            "grain",
            "placement",
            "work_stealing",
            "rebalance_interval_s",
            "steal_threshold",
            "idle_threshold",
            "imbalance_ratio",
            "max_migrations_per_cycle",
            "migration_cooldown_s",
        }

    def test_node_settings_census(self):
        """What every node boots with beyond its identity, by name."""
        assert {f.name for f in fields(NodeSettings)} == {
            "telemetry",
            "mailbox_depth",
        }

    def test_node_row_census(self):
        """Every key of the one per-node row (``Node.report``), by name.

        ``queued`` is every queued call (each mailbox is one FIFO, so all
        of it can move with its grain); no other key means it.
        """
        runtime = parc.init(ParcConfig(nodes=1))
        try:
            (row,) = runtime.stats()
            assert row == runtime.cluster.home_node.om.report()
        finally:
            parc.shutdown()
        assert set(row) == {
            "index",
            "base_uri",
            "load",
            "ios",
            "created_total",
            "queued",
            "processed",
            "shed",
            "async_failures",
            "avg_service_s",
            "p99_s",
            "methods",
            "grains",
            "migrations_out",
            "migrations_in",
            "migration_failures",
            "calls_moved",
            "steals",
        }

    def test_flat_scheduling_fields_are_gone(self):
        with pytest.raises(TypeError):
            ParcConfig(grain=GrainPolicy(max_calls=4))  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            ParcConfig(placement="least_loaded")  # type: ignore[call-arg]

    def test_picklable_for_worker_spawn(self):
        config = ParcConfig(telemetry=TelemetryConfig(enabled=True))
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config


class TestInitForms:
    def test_init_with_config_object(self):
        runtime = parc.init(ParcConfig(nodes=2))
        try:
            assert runtime.cluster.num_nodes == 2
        finally:
            parc.shutdown()

    def test_init_and_session_take_one_config(self):
        for entry in (parc.init, parc.session):
            assert list(inspect.signature(entry).parameters) == ["config"]

    def test_init_rejects_everything_but_a_config(self):
        with pytest.raises(TypeError):
            parc.init(nodes=4)  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            parc.init(4)  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            with parc.session(nodes=1):  # type: ignore[call-arg]
                pass
        with pytest.raises(NotRunningError):
            parc.current_runtime()


class TestSession:
    def test_session_yields_runtime_and_shuts_down(self):
        with parc.session(ParcConfig(nodes=1)) as runtime:
            assert parc.current_runtime() is runtime
        with pytest.raises(NotRunningError):
            parc.current_runtime()

    def test_session_shuts_down_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with parc.session(ParcConfig(nodes=1)):
                raise RuntimeError("boom")
        with pytest.raises(NotRunningError):
            parc.current_runtime()


class TestTelemetryConfig:
    def test_defaults_off(self):
        config = TelemetryConfig()
        assert config.enabled is False
        assert config.sample_rate == 1.0
        assert config.capacity == 100_000

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_rate=1.5)
        with pytest.raises(ValueError):
            TelemetryConfig(sample_rate=-0.1)
        with pytest.raises(ValueError):
            TelemetryConfig(capacity=0)
