"""Placement policies: which node hosts a new implementation object.

§3.2: "the OM selects a processing node to create a new IO (according to
the current load distribution policy)".  The paper leaves the policy
abstract; we provide the classic three plus ``locality``, which prices
queued service time, and make the choice pluggable.

Policies receive a :class:`repro.sched.ClusterView` — per-node load,
mailbox queue depth, liveness and measured service times — and return
an index into ``view.nodes`` (directory order, dead nodes included).
"""

from __future__ import annotations

import abc
import random
import threading

from repro.errors import PlacementError
from repro.sched.view import ClusterView, NodeView


class PlacementPolicy(abc.ABC):
    """Chooses a node index given a cluster snapshot.

    ``choose`` returns an index into ``view.nodes`` (directory order);
    the chosen node must be alive.  ``home_index`` is the creating
    node's directory index (policies may prefer or avoid it).
    """

    name: str

    @abc.abstractmethod
    def choose(self, view: ClusterView, home_index: int) -> int:
        """Directory index of the node that should host the new IO."""

    def _live(self, view: ClusterView) -> list[NodeView]:
        live = view.live()
        if not live:
            raise PlacementError("placement asked with no live nodes")
        return live


class RoundRobinPlacement(PlacementPolicy):
    """Cycle through live nodes; ignores load.  The paper-era default."""

    name = "round_robin"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0

    def choose(self, view: ClusterView, home_index: int) -> int:
        live = self._live(view)
        with self._lock:
            node = live[self._next % len(live)]
            self._next += 1
            return node.index


class LeastLoadedPlacement(PlacementPolicy):
    """Pick the live node with the lowest load (ties: lowest index)."""

    name = "least_loaded"

    def choose(self, view: ClusterView, home_index: int) -> int:
        live = self._live(view)
        best = live[0]
        for node in live[1:]:
            if node.load < best.load:
                best = node
        return best.index


class RandomPlacement(PlacementPolicy):
    """Uniform random choice among live nodes; seedable."""

    name = "random"

    def __init__(self, seed: int | None = None) -> None:
        self._random = random.Random(seed)
        self._lock = threading.Lock()

    def choose(self, view: ClusterView, home_index: int) -> int:
        live = self._live(view)
        with self._lock:
            return live[self._random.randrange(len(live))].index


class LocalityAwarePlacement(PlacementPolicy):
    """Load plus queued service time (ties: lowest index).

    Each live node is scored ``load`` plus, when the view carries
    telemetry histogram summaries (``NodeView.avg_service_s`` > 0), a
    service-time term ``queue_depth * avg_service_s / service_scale_s``:
    the node's backlog priced in *measured seconds of work* rather than
    task counts — ten queued 100 µs calls are cheaper than one queued
    50 ms call.  ``service_scale_s`` converts backlog-seconds into load
    units (one point per 10 ms of queued work by default); nodes without
    summaries (telemetry off) contribute 0, so the policy is then
    least-loaded.
    """

    name = "locality"

    def __init__(self, service_scale_s: float = 0.01) -> None:
        if service_scale_s <= 0:
            raise PlacementError("service_scale_s must be positive")
        self.service_scale_s = service_scale_s

    def _score(self, node: NodeView) -> float:
        score = node.load
        if node.avg_service_s > 0.0 and node.queue_depth > 0:
            score += (
                node.queue_depth * node.avg_service_s / self.service_scale_s
            )
        return score

    def choose(self, view: ClusterView, home_index: int) -> int:
        live = self._live(view)
        best = live[0]
        best_score = self._score(best)
        for node in live[1:]:
            score = self._score(node)
            if score < best_score:
                best, best_score = node, score
        return best.index


def coerce_policy(policy: object) -> PlacementPolicy:
    """Return *policy* as a :class:`PlacementPolicy`.

    Instances pass through; strings go through :func:`make_placement`;
    anything else is a :class:`~repro.errors.PlacementError`.
    """
    if isinstance(policy, PlacementPolicy):
        return policy
    if isinstance(policy, str):
        return make_placement(policy)
    raise PlacementError(
        f"placement must be a PlacementPolicy or a policy name, got "
        f"{type(policy).__qualname__}"
    )


_POLICIES = {
    "round_robin": RoundRobinPlacement,
    "least_loaded": LeastLoadedPlacement,
    "random": RandomPlacement,
    "locality": LocalityAwarePlacement,
}


def make_placement(name: str, **kwargs: object) -> PlacementPolicy:
    """Build a policy by name (``round_robin``, ``least_loaded``,
    ``random``, ``locality``)."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise PlacementError(
            f"unknown placement policy {name!r}; known: {known}"
        ) from None
    return factory(**kwargs)  # type: ignore[arg-type]
