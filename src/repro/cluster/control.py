"""ControlPlane: the one periodic loop of a cluster.

Failure detection, elastic worker scaling and grain rebalancing all ask
the same question — *how loaded is node X, and does it answer?* — so
one ``tick`` fetches one row per directory entry (see
:meth:`repro.cluster.node.Node.report`) **once** and hands that same
observation to every duty that is due.  The state machines stay where
they were (:class:`~repro.flow.ElasticController`,
:class:`~repro.sched.RebalancePlanner`); this module only decides
*when* they run, and reads time through an injected
:class:`~repro.perfmodel.clock.Clock`, so tests drive the real loop by
stepping a :class:`~repro.perfmodel.clock.VirtualClock` and calling
:meth:`ControlPlane.tick`.
"""

from __future__ import annotations

import logging
import threading
from typing import Any, Callable, NamedTuple, Sequence

from repro.executor import executor, timer
from repro.perfmodel.clock import Clock, WallClock

_log = logging.getLogger("repro.cluster")

#: Seconds between elastic-scaling samples.
ELASTIC_INTERVAL_S = 1.0


class Observed(NamedTuple):
    """What one row fetch learned about one directory entry."""

    base_uri: str
    #: The node's row, or ``None`` when it produced none this round.
    row: dict | None
    #: ``False`` only on a transport failure — a peer that *answered*
    #: with an error has no row but is demonstrably alive.
    reachable: bool


class ErrorCounter:
    """Makes a caught-and-continued failure visible.

    ``errors(site)`` — called from inside an ``except`` block — bumps
    ``cluster.errors.<site>`` on *metrics* and logs the first failure of
    each site (with its traceback) on logger ``repro.cluster``.
    """

    def __init__(self, metrics: Any = None) -> None:
        self.metrics = metrics
        self._logged: set[str] = set()

    def __call__(self, site: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                f"cluster.errors.{site}",
                "failures caught and continued past at this site",
            ).inc()
        if site not in self._logged:
            self._logged.add(site)
            _log.warning(
                "cluster %s failed; continuing (further failures are only "
                "counted at cluster.errors.%s)",
                site,
                site,
                exc_info=True,
            )


class _Duty:
    def __init__(
        self,
        name: str,
        interval_s: float,
        run: Callable[[Sequence[Observed], float], None],
        now: float,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"{name} interval must be > 0, got {interval_s}")
        self.name = name
        self.interval_s = interval_s
        self.run = run
        self.due = now + interval_s


class ControlPlane:
    """Detector, elastic scaler and rebalancer on one clock.

    *cluster* is what the duties act on: ``observe()`` (one
    :class:`Observed` per directory entry), ``deliver_verdicts(verdicts,
    news)``, ``worker_count()``, ``scale_out``/``scale_in(queued, p99)``,
    ``start_moves(moves)`` and an ``errors`` :class:`ErrorCounter` —
    :class:`~repro.cluster.cluster.Cluster`, or a scripted stand-in.  A
    duty exists only when its argument is given: *heartbeat_s* (the
    detector period), *elastic* (an ``ElasticController``, sampled every
    :data:`ELASTIC_INTERVAL_S`), *planner* (a ``RebalancePlanner``, run
    every ``rebalance_interval_s`` of its config).
    """

    def __init__(
        self,
        cluster: Any,
        heartbeat_s: float | None = None,
        elastic: Any = None,
        planner: Any = None,
        clock: Clock | None = None,
    ) -> None:
        self.cluster = cluster
        self.clock = clock if clock is not None else WallClock()
        self.elastic = elastic
        self.planner = planner
        # Detector memory: the last verdict per peer (unknown = alive, so
        # the first round only reports nodes that are already down).
        self._last: dict[str, bool] = {}
        now = self.clock.now()
        self._duties: list[_Duty] = []
        if heartbeat_s is not None:
            self._duties.append(_Duty("detect", heartbeat_s, self._detect, now))
        if elastic is not None:
            self._duties.append(
                _Duty("elastic", ELASTIC_INTERVAL_S, self._scale, now)
            )
        if planner is not None:
            interval_s = planner.config.rebalance_interval_s
            self._duties.append(
                _Duty("rebalance", interval_s, self._rebalance, now)
            )
        self._tick_lock = threading.RLock()  # also guards _next
        self._next = None  # the timer call of the next tick, while started

    # -- the loop ----------------------------------------------------------

    def start(self) -> None:
        """Run :meth:`tick` at each next due time, on the process executor.

        The process timer wakes the plane and the tick runs as an
        executor run; the plane re-arms when it ends, so one tick at a
        time is in flight.  A no-op without duties.
        """
        with self._tick_lock:
            if self._duties and self._next is None:
                self._arm_locked()

    def stop(self) -> None:
        """Cancel the next tick; wait (at most 10 s) for one in flight."""
        # A tick blocked on a dying peer can hold the lock; the bounded
        # wait keeps teardown from hanging on it.
        locked = self._tick_lock.acquire(timeout=10.0)
        call, self._next = self._next, None
        if locked:
            self._tick_lock.release()
        if call is not None:
            call.cancel()

    def _arm_locked(self) -> None:
        delay = max(0.0, min(d.due for d in self._duties) - self.clock.now())
        # The timer thread must not block: it only hands the tick over.
        self._next = timer().call_later(
            delay, lambda: executor().submit(self._run, attach=True)
        )

    def _run(self) -> None:
        with self._tick_lock:
            if self._next is not None:  # not stopped since the timer fired
                self.tick()
            if self._next is not None:
                self._arm_locked()

    def tick(self) -> None:
        """Run every duty that is due, on one shared observation.

        Never raises: a failing fetch or duty is counted at
        ``cluster.errors.<duty>`` and the rest still run.  Due times
        advance *before* anything runs, so a raising duty neither
        retries in a tight loop nor shifts the others' schedule.
        """
        with self._tick_lock:
            now = self.clock.now()
            due = [duty for duty in self._duties if now >= duty.due]
            if not due:
                return
            for duty in due:
                duty.due = now + duty.interval_s
            try:
                observed = self.cluster.observe()
            except Exception:  # noqa: BLE001 - the loop must survive
                self.cluster.errors("observe")
                return
            for duty in due:
                try:
                    duty.run(observed, now)
                except Exception:  # noqa: BLE001 - one duty, not the loop
                    self.cluster.errors(duty.name)

    # -- duties ------------------------------------------------------------

    def _detect(self, observed: Sequence[Observed], now: float) -> None:
        """Row fetched ⇒ alive, transport failure ⇒ dead."""
        verdicts = {o.base_uri: o.reachable for o in observed}
        news = {
            uri: alive
            for uri, alive in verdicts.items()
            if self._last.get(uri, True) != alive
        }
        self._last = verdicts
        self.cluster.deliver_verdicts(verdicts, news)

    def _scale(self, observed: Sequence[Observed], now: float) -> None:
        rows = [o.row for o in observed if o.row is not None]
        queued = sum(row["queued"] for row in rows)
        p99 = max((row["p99_s"] for row in rows), default=0.0)
        decision = self.elastic.observe(
            self.cluster.worker_count(), queued, p99
        )
        if decision == "out":
            self.cluster.scale_out(queued, p99)
        elif decision == "in":
            self.cluster.scale_in(queued, p99)

    def _rebalance(self, observed: Sequence[Observed], now: float) -> None:
        rows = [o.row for o in observed if o.row is not None]
        self.cluster.start_moves(self.planner.plan(rows, now))
