"""SchedulerConfig: every scheduling knob in one typed value.

``ParcConfig(scheduler=SchedulerConfig(...))`` is the only home of the
grain policy, the placement policy and the rebalancer's thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ScooppError


@dataclass
class SchedulerConfig:
    """Placement, grain adaptation, and rebalancing knobs.

    ``placement`` accepts a policy name (``"round_robin"``,
    ``"least_loaded"``, ``"random"``, ``"locality"``) or a
    :class:`~repro.cluster.placement.PlacementPolicy` instance.

    ``work_stealing`` enables idle-node pulls: a node whose mailbox
    backlog is below ``idle_threshold`` queued calls steals a grain —
    the grain's state plus its queued backlog — from the node with the
    deepest backlog, provided the victim's backlog exceeds
    ``steal_threshold`` and the imbalance ratio (victim backlog / mean
    backlog) exceeds ``imbalance_ratio``.  Explicit
    ``Cluster.migrate_grain`` calls need no switch.
    """

    #: Grain policy (static knobs or the adaptive controller); ``None``
    #: keeps the runtime default.
    grain: Any = None
    #: Placement policy name or instance.
    placement: Any = "round_robin"
    #: Enable the idle-node work-stealing loop.
    work_stealing: bool = False
    #: Rebalance loop period in seconds.
    rebalance_interval_s: float = 0.25
    #: Minimum victim backlog (queued calls) before anything is stolen
    #: from it.
    steal_threshold: int = 8
    #: A thief must have at most this many queued calls to pull work.
    idle_threshold: int = 2
    #: Victim backlog must exceed ``imbalance_ratio`` x the cluster mean
    #: backlog before a steal is planned (guards against churn when load
    #: is already level).
    imbalance_ratio: float = 1.5
    #: Upper bound on migrations planned per rebalance tick.
    max_migrations_per_cycle: int = 4
    #: Per-grain cooldown: a grain that just moved is pinned for this
    #: many seconds (prevents hot-grain ping-pong).
    migration_cooldown_s: float = 2.0

    def __post_init__(self) -> None:
        if self.rebalance_interval_s <= 0:
            raise ScooppError(
                "rebalance_interval_s must be positive, got "
                f"{self.rebalance_interval_s}"
            )
        if self.steal_threshold < 1:
            raise ScooppError(
                f"steal_threshold must be >= 1, got {self.steal_threshold}"
            )
        if self.idle_threshold < 0:
            raise ScooppError(
                f"idle_threshold cannot be negative, got {self.idle_threshold}"
            )
        if self.imbalance_ratio < 1.0:
            raise ScooppError(
                f"imbalance_ratio must be >= 1.0, got {self.imbalance_ratio}"
            )
        if self.max_migrations_per_cycle < 1:
            raise ScooppError(
                "max_migrations_per_cycle must be >= 1, got "
                f"{self.max_migrations_per_cycle}"
            )
        if self.migration_cooldown_s < 0:
            raise ScooppError(
                "migration_cooldown_s cannot be negative, got "
                f"{self.migration_cooldown_s}"
            )
