"""Elastic scaling decisions from queue depth and latency histograms.

The controller is pure decision logic — feed it one sample per tick
(worker count, total queued calls, an optional method-latency p99
estimate) and it answers ``"out"``, ``"in"`` or ``None``.  The
:class:`~repro.cluster.cluster.Cluster` owns the sampling thread and
applies the decisions by spawning or retiring worker processes, so this
piece stays unit-testable without any multiprocessing.

State machine (documented in ARCHITECTURE §5b)::

    steady --high sample x out_consecutive--> scale OUT --cooldown--> steady
    steady --idle sample x in_consecutive--> scale IN  --cooldown--> steady

Hysteresis is deliberate and asymmetric: scaling out is cheap to get
wrong (an idle worker) and slow to need twice, so it triggers after few
samples; scaling in kills capacity, so it demands a much longer run of
idle samples.  The cooldown after every action lets the directory,
heartbeats, and rebalanced queues settle before the signals are trusted
again.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ElasticPolicy:
    """Thresholds and hysteresis for the scaling loop."""

    min_workers: int
    max_workers: int
    #: Mean queued calls per worker above which a sample reads "high".
    queue_high: float = 8.0
    #: Mean queued calls per worker below which a sample reads "idle".
    queue_low: float = 0.5
    #: Method-latency p99 above which a sample reads "high" even if
    #: queues look shallow (slow methods hide depth in execution time).
    p99_high_s: float = 1.0
    #: Consecutive high samples before scaling out.
    out_consecutive: int = 2
    #: Consecutive idle samples before scaling in (deliberately longer).
    in_consecutive: int = 8
    #: Samples ignored after any scaling action.
    cooldown: int = 4

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError("elastic min workers must be >= 1")
        if self.max_workers < self.min_workers:
            raise ValueError("elastic max workers must be >= min workers")


class ElasticController:
    """Hysteresis + cooldown around the raw pressure signals."""

    def __init__(self, policy: ElasticPolicy) -> None:
        self.policy = policy
        self._high_streak = 0
        self._idle_streak = 0
        self._cooldown = 0

    def observe(
        self,
        workers: int,
        queued_total: int,
        p99_s: float | None = None,
    ) -> str | None:
        """Feed one sample; returns ``"out"``, ``"in"`` or ``None``."""
        policy = self.policy
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        per_worker = queued_total / max(1, workers)
        high = per_worker > policy.queue_high or (
            p99_s is not None and p99_s > policy.p99_high_s
        )
        idle = per_worker < policy.queue_low and (
            p99_s is None or p99_s <= policy.p99_high_s
        )
        self._high_streak = self._high_streak + 1 if high else 0
        self._idle_streak = self._idle_streak + 1 if idle else 0
        if (
            high
            and self._high_streak >= policy.out_consecutive
            and workers < policy.max_workers
        ):
            self._reset(cooldown=policy.cooldown)
            return "out"
        if (
            idle
            and self._idle_streak >= policy.in_consecutive
            and workers > policy.min_workers
        ):
            self._reset(cooldown=policy.cooldown)
            return "in"
        return None

    def _reset(self, cooldown: int) -> None:
        self._high_streak = 0
        self._idle_streak = 0
        self._cooldown = cooldown
