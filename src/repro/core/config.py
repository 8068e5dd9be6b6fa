"""Runtime configuration: the one typed value the runtime boots from.

:class:`ParcConfig` gathers every runtime setting — cluster shape,
transport, scheduling, self-healing, fault injection, telemetry — into
a single declarative value that can be built once, passed around, and
handed to :func:`repro.core.init` or :func:`repro.core.session`::

    import repro.core as parc
    from repro.core import ParcConfig
    from repro.telemetry import TelemetryConfig

    config = ParcConfig(
        nodes=4,
        channel="tcp",
        telemetry=TelemetryConfig(enabled=True),
    )
    with parc.session(config) as runtime:
        ...

Grain and placement policy live in ``scheduler=SchedulerConfig(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ScooppError
from repro.sched import SchedulerConfig
from repro.telemetry import TelemetryConfig


@dataclass(frozen=True)
class NodeSettings:
    """The per-node subset of :class:`ParcConfig`, as one picklable value.

    What every node — in-process or a worker process — needs to know
    beyond its identity; field meanings are :class:`ParcConfig`'s.
    """

    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    mailbox_depth: int = 0


@dataclass
class ParcConfig:
    """Declarative runtime configuration (see module docstring)."""

    #: Number of in-process nodes (each gets an OM + factory).
    nodes: int = 4
    #: Channel kind string, resolved by :func:`repro.channels.create`
    #: (``"loopback"``, ``"tcp"``, ``"http"``, ``"aio"``, ``"shm"``, or a
    #: ``"chaos+*"`` variant of one of them).
    channel: str = "loopback"
    #: Extra nodes as separate OS processes over TCP.
    worker_processes: int = 0
    #: Modules each worker process imports at boot (class registration).
    worker_modules: tuple[str, ...] = ()
    #: Failure-detector period in seconds; ``None`` disables heartbeats.
    heartbeat_s: float | None = None
    #: Scripted fault plan for ``chaos+*`` channels.
    chaos_plan: Any = None
    #: Runtime fault controller for ``chaos+*`` channels.
    chaos_controller: Any = None
    #: Distributed tracing and metrics (disabled by default).
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    #: Bound on each IO mailbox (one FIFO per grain), in queued calls; 0
    #: keeps the paper's unbounded FIFO.  A call that would overfill it
    #: is shed with :class:`~repro.errors.OverloadError`.
    mailbox_depth: int = 0
    #: ``(min, max)`` worker-process bounds for elastic scaling; ``None``
    #: keeps the worker count fixed.  Requires ``worker_processes >= 1``
    #: (the initial count, clamped into the bounds); retirement announces
    #: the node down so restartable grains respawn on survivors.
    elastic: tuple | None = None
    #: All scheduling knobs in one place: grain policy, placement policy
    #: (name or :class:`~repro.cluster.placement.PlacementPolicy`
    #: instance), work stealing, live migration and the rebalance-loop
    #: tuning (see :class:`~repro.sched.SchedulerConfig`).  ``None``
    #: means ``SchedulerConfig()``.
    scheduler: SchedulerConfig | None = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ScooppError(f"nodes must be >= 1, got {self.nodes}")
        if self.worker_processes < 0:
            raise ScooppError("worker_processes cannot be negative")
        self.worker_modules = tuple(self.worker_modules)
        if not isinstance(self.telemetry, TelemetryConfig):
            raise ScooppError(
                "telemetry must be a TelemetryConfig, got "
                f"{type(self.telemetry).__qualname__}"
            )
        if self.mailbox_depth < 0:
            raise ScooppError("mailbox_depth cannot be negative")
        if self.elastic is not None:
            self.elastic = tuple(self.elastic)
            if (
                len(self.elastic) != 2
                or not all(isinstance(n, int) for n in self.elastic)
            ):
                raise ScooppError(
                    f"elastic must be a (min, max) int pair, got "
                    f"{self.elastic!r}"
                )
            low, high = self.elastic
            if low < 1 or high < low:
                raise ScooppError(
                    f"elastic bounds need 1 <= min <= max, got {self.elastic}"
                )
            if self.worker_processes < 1:
                raise ScooppError(
                    "elastic scaling needs worker_processes >= 1 "
                    "(the initial worker count)"
                )
        if self.scheduler is not None and not isinstance(
            self.scheduler, SchedulerConfig
        ):
            raise ScooppError(
                "scheduler must be a SchedulerConfig, got "
                f"{type(self.scheduler).__qualname__}"
            )

    def node_settings(self) -> NodeSettings:
        """The settings every node of this runtime boots with."""
        return NodeSettings(
            telemetry=self.telemetry,
            mailbox_depth=self.mailbox_depth,
        )
