"""The rebalance planner: pure decision logic for work stealing.

Separated from the cluster loop exactly like ``flow``'s
``ElasticController``: the planner is a deterministic function of the
node reports it is handed plus a little cooldown state, so the steal /
migration policy is unit-testable without booting a cluster.

Semantics honored here (the active-object contract):

* a grain's calls execute serially on its single instance, so "stealing
  queued PO calls" means moving the *grain* — state plus queued backlog
  — never splitting a grain's queue across nodes;
* every queued call moves with its grain, while the batch executing
  right now always finishes on the victim (the migration engine waits
  it out before touching state);
* a grain that just moved is pinned for ``migration_cooldown_s`` so a
  hot grain cannot ping-pong between nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.sched.config import SchedulerConfig


@dataclass(frozen=True)
class PlannedMove:
    """One grain migration the planner wants executed."""

    victim_uri: str
    target_uri: str
    path: str
    class_name: str
    backlog: int
    #: ``"steal"`` when the target was idle (pull), ``"rebalance"`` when
    #: it merely had room below the cluster mean (push).
    kind: str = "steal"


#: A grain queueing fewer calls than this stays put: migrating costs
#: more than executing such a backlog in place ever could.
MIN_STEAL_BACKLOG = 2


@dataclass
class RebalancePlanner:
    """Plans grain moves from per-node scheduler reports.

    ``plan`` takes the latest rows (one dict per node, shaped like
    :meth:`repro.cluster.node.Node.report`; it reads their ``queued``
    backlog) and a monotonic timestamp, and returns at most
    ``max_migrations_per_cycle``
    :class:`PlannedMove`\\ s.  A move is accepted only when it shrinks
    the victim/target makespan gap: grain ``b`` may go from victim
    ``v`` to target ``t`` iff ``depth[t] + b <= depth[v] - b``, so the
    target never overtakes the victim and moves cannot ping-pong.
    The rule handles the mega-grain case naturally: a grain whose own
    backlog dominates its node is unmovable (relocating it would just
    relocate the hot spot), while *everything else* keeps draining off
    that node — the mega-grain ends up owning its node's full capacity,
    which is the best any scheduler can do for a serial queue.
    """

    config: SchedulerConfig = field(default_factory=SchedulerConfig)

    def __post_init__(self) -> None:
        # path -> monotonic timestamp of the last planned move.
        self._cooldowns: dict[str, float] = {}

    def plan(
        self, reports: Sequence[Mapping], now: float
    ) -> list[PlannedMove]:
        cfg = self.config
        live = [r for r in reports if r.get("alive", True)]
        if len(live) < 2:
            return []
        self._expire_cooldowns(now)

        # Service-time weighting: when EVERY live report carries a
        # measured avg_service_s (telemetry on everywhere), a node's
        # backlog is priced in seconds of work normalized to the cluster
        # mean — 100 queued 100 µs calls weigh less than 10 queued 50 ms
        # calls.  One missing/zero figure disables weighting entirely:
        # mixing measured and unmeasured depths would compare seconds
        # against task counts.
        service = {
            r["base_uri"]: float(r.get("avg_service_s", 0.0)) for r in live
        }
        if all(v > 0.0 for v in service.values()):
            mean_service = sum(service.values()) / len(live)
            weight = {
                uri: v / mean_service for uri, v in service.items()
            }
        else:
            weight = {uri: 1.0 for uri in service}
        backlog = {
            r["base_uri"]: int(r.get("queued", 0)) * weight[r["base_uri"]]
            for r in live
        }
        mean = sum(backlog.values()) / len(live)

        victims = sorted(
            (
                r
                for r in live
                if backlog[r["base_uri"]] >= cfg.steal_threshold
                and backlog[r["base_uri"]] > cfg.imbalance_ratio * mean
            ),
            key=lambda r: backlog[r["base_uri"]],
            reverse=True,
        )
        if not victims:
            return []
        victim_uris = {r["base_uri"] for r in victims}
        # Anyone below the mean (and not itself a victim) can absorb
        # work; truly idle nodes make it a "steal", the rest a
        # "rebalance".
        targets = {
            uri: depth
            for uri, depth in backlog.items()
            if uri not in victim_uris and depth < mean
        }
        if not targets:
            return []

        moves: list[PlannedMove] = []
        for victim in victims:
            if len(moves) >= cfg.max_migrations_per_cycle:
                break
            uri = victim["base_uri"]
            depth = backlog[uri]
            candidates = sorted(
                (
                    g
                    for g in victim.get("grains", ())
                    if int(g.get("backlog", 0)) >= MIN_STEAL_BACKLOG
                    and g["path"] not in self._cooldowns
                ),
                key=lambda g: int(g["backlog"]),
                reverse=True,
            )
            for grain in candidates:
                if len(moves) >= cfg.max_migrations_per_cycle:
                    break
                size = int(grain["backlog"])
                # Makespan-improvement test: the move must leave the
                # target no deeper than the shrunken victim.  A grain
                # too big to satisfy it stays put; smaller ones may
                # still fit, so keep scanning.
                target_uri = self._pick_target(targets, size, depth)
                if target_uri is None:
                    continue
                kind = (
                    "steal"
                    if targets[target_uri] <= cfg.idle_threshold
                    else "rebalance"
                )
                moves.append(
                    PlannedMove(
                        victim_uri=uri,
                        target_uri=target_uri,
                        path=grain["path"],
                        class_name=grain.get("class_name", "?"),
                        backlog=size,
                        kind=kind,
                    )
                )
                self._cooldowns[grain["path"]] = now
                targets[target_uri] += size
                depth -= size
                backlog[uri] = depth
        return moves

    def _pick_target(
        self, targets: dict[str, int], size: int, victim_depth: int
    ) -> str | None:
        """Least-loaded target still below the victim after the move."""
        best = None
        for uri, depth in targets.items():
            if depth + size > victim_depth - size:
                continue
            if best is None or depth < targets[best]:
                best = uri
        return best

    def _expire_cooldowns(self, now: float) -> None:
        ttl = self.config.migration_cooldown_s
        expired = [
            path for path, ts in self._cooldowns.items() if now - ts >= ttl
        ]
        for path in expired:
            del self._cooldowns[path]
