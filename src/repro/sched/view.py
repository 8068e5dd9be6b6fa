"""Cluster views: the structured load snapshot placement policies see.

A :class:`ClusterView` carries what the runtime knows about each node
when a grain is placed: load and queue depths (flow control), liveness
(the failure detector) and measured service times (the telemetry
histograms) — one :class:`NodeView` per directory entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

_INF = float("inf")


@dataclass(frozen=True)
class NodeView:
    """One node's row in the cluster snapshot.

    ``load`` is the classic OM metric (live IOs plus queued tasks,
    adjusted for placements made since the last refresh);
    ``queue_depth`` is the mailbox backlog alone (tasks queued across
    all hosted IOs' mailboxes).

    ``avg_service_s``/``p99_s`` summarize the node's
    ``parc.method.seconds.*`` latency histograms (mean and conservative
    p99 across its hosted methods, 0.0 when telemetry is off) — the
    signal that lets placement
    price *service time* rather than assume every queued task costs the
    same.
    """

    index: int
    base_uri: str
    alive: bool = True
    load: float = 0.0
    queue_depth: int = 0
    ios: int = 0
    avg_service_s: float = 0.0
    p99_s: float = 0.0


@dataclass(frozen=True)
class ClusterView:
    """Immutable snapshot of the cluster handed to placement policies.

    ``nodes`` is in directory order, one entry per directory slot (dead
    nodes included, flagged ``alive=False``); ``class_name`` is the wire
    name of the class being placed, when known.
    """

    nodes: tuple[NodeView, ...] = field(default_factory=tuple)
    class_name: str | None = None

    @classmethod
    def from_loads(
        cls,
        loads: Sequence[float],
        class_name: str | None = None,
    ) -> "ClusterView":
        """Build a view from per-node loads (``inf`` marks a dead node)."""
        return cls(
            nodes=tuple(
                NodeView(
                    index=i,
                    base_uri=f"node://{i}",
                    alive=load != _INF,
                    load=float(load) if load != _INF else 0.0,
                )
                for i, load in enumerate(loads)
            ),
            class_name=class_name,
        )

    def live(self) -> list[NodeView]:
        """Nodes the failure detector considers reachable."""
        return [node for node in self.nodes if node.alive]
