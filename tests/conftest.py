"""Shared fixtures for the PyParC test suite."""

from __future__ import annotations

import os
import signal

import pytest

import repro.core as parc
from repro.core import (
    AdaptiveGrainController,
    GrainPolicy,
    ParcConfig,
    SchedulerConfig,
)

#: Optional per-test watchdog (seconds), enabled by PARC_TEST_TIMEOUT.
#: The chaos CI job uses it so a hung fault-injection test fails loudly
#: instead of stalling the runner (no pytest-timeout dependency needed).
_TEST_TIMEOUT_S = float(os.environ.get("PARC_TEST_TIMEOUT", "0") or 0)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if _TEST_TIMEOUT_S <= 0 or not hasattr(signal, "SIGALRM"):
        return (yield)

    def _on_alarm(signum, frame):  # noqa: ARG001 - signal signature
        raise TimeoutError(
            f"{item.nodeid} exceeded PARC_TEST_TIMEOUT={_TEST_TIMEOUT_S}s"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, _TEST_TIMEOUT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def runtime():
    """A 3-node loopback runtime with light aggregation; always torn down."""
    rt = parc.init(
        ParcConfig(
            nodes=3,
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=4)),
        )
    )
    try:
        yield rt
    finally:
        parc.shutdown()


@pytest.fixture
def plain_runtime():
    """A 2-node runtime with no aggregation (max_calls=1)."""
    rt = parc.init(
        ParcConfig(
            nodes=2,
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=1)),
        )
    )
    try:
        yield rt
    finally:
        parc.shutdown()


@pytest.fixture
def adaptive_runtime():
    """A 3-node runtime driven by the adaptive grain controller."""
    controller = AdaptiveGrainController(
        overhead_s=500e-6, min_samples=4, max_calls_cap=32
    )
    rt = parc.init(
        ParcConfig(nodes=3, scheduler=SchedulerConfig(grain=controller))
    )
    try:
        yield rt, controller
    finally:
        parc.shutdown()


@pytest.fixture(autouse=True)
def _no_leaked_runtime():
    """Guarantee no test leaves a global runtime behind."""
    yield
    try:
        parc.current_runtime()
    except Exception:
        return
    parc.shutdown()
    pytest.fail("test leaked a live ParC runtime; use the fixtures")
