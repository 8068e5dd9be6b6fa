"""Telemetry configuration — the ``telemetry=`` section of ParcConfig.

A plain picklable dataclass: worker processes receive it pickled inside
:class:`repro.cluster.proc.WorkerConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TelemetryConfig:
    """Cluster-wide observability switches.

    enabled
        Install a per-node :class:`~repro.telemetry.tracer.Tracer`, record
        rpc/dispatch/io spans, and serve scrape data on every node.  Off
        by default: the disabled path must stay within the 5% pingpong
        guardrail (``benchmarks/test_trace_overhead.py``).
    sample_rate
        Fraction of root traces recorded (decision taken at the root,
        inherited by all children — see
        :func:`repro.telemetry.context.set_sample_rate`).
    capacity
        Per-node tracer ring size; beyond it the oldest events drop and
        ``telemetry.dropped_events`` counts them.
    """

    enabled: bool = False
    sample_rate: float = 1.0
    capacity: int = 100_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
