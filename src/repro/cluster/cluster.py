"""Cluster: boots N nodes and wires their object managers together.

The "application entry code" of §3.2: create one OM per node, register the
factories in each node's boot code, and hand every OM the cluster
directory so they can exchange loads and statistics.
"""

from __future__ import annotations

import functools
import threading
import uuid
from typing import Any

from repro.channels.base import Channel
from repro.channels.factory import available_kinds, create as create_channel
from repro.channels.services import ChannelServices
from repro.cluster.control import ControlPlane, ErrorCounter, Observed
from repro.cluster.node import Node
from repro.cluster.placement import coerce_policy
from repro.cluster.proc import ProcessNodeHandle, spawn_workers
from repro.core.config import ParcConfig
from repro.core.grain import GrainPolicy
from repro.core.impl import executor
from repro.errors import ScooppError
from repro.flow import ElasticController, ElasticPolicy
from repro.sched import PlannedMove, RebalancePlanner, SchedulerConfig
from repro.telemetry import (
    MetricsRegistry,
    get_global_tracer,
    get_sample_rate,
    set_global_tracer,
    set_sample_rate,
)

_BASE_KINDS = ("loopback", "tcp", "aio", "shm")

#: Base kinds the shm same-node backplane can ride alongside (the peer
#: must be dialled by a socket authority for the handshake-socket probe
#: to identify it).
_SAMENODE_BASE_KINDS = ("tcp", "aio")


class Cluster:
    """N in-process nodes talking over loopback or real TCP.

    All nodes share one :class:`ChannelServices` (the "network"), so a
    proxy created anywhere in the process can reach any node.  Node 0 is
    the *home node*: the node whose OM serves creations made from the
    application's main thread (creations made inside parallel methods go
    through the executing node's OM).
    """

    def __init__(self, config: ParcConfig) -> None:
        """Boot the cluster *config* describes (field meanings are
        :class:`~repro.core.config.ParcConfig`'s, which also validates
        each value on its own; what is checked here is how they combine).

        ``config.channel`` may be ``chaos+<base>``: every call then
        routes through a :class:`~repro.chaos.FaultyChannel` fed by
        ``chaos_plan`` / ``chaos_controller``.  ``worker_processes``
        extra nodes run as separate OS processes over TCP (see
        :mod:`repro.cluster.proc`), importing ``worker_modules`` at boot;
        with ``elastic`` bounds the initial count is clamped into them.
        ``same_node_transport="shm"`` gives every node a hidden
        shared-memory listener on its socket authority and wraps the
        client channel in a :class:`~repro.shm.SameNodeChannel`, so
        calls between co-located processes ride ring buffers while
        remote peers stay on the wire — no URI or directory changes.

        ``heartbeat_s``, ``elastic`` and ``scheduler.work_stealing`` are
        the duties of the one :class:`~repro.cluster.control.ControlPlane`
        (``self.control``); its thread exists only when one is set.
        """
        channel_kind = config.channel
        chaos = channel_kind.startswith("chaos+")
        base_kind = channel_kind.split("+", 1)[1] if chaos else channel_kind
        if base_kind not in _BASE_KINDS or base_kind not in available_kinds():
            raise ScooppError(f"unknown channel kind {channel_kind!r}")
        if (
            config.chaos_plan is not None
            or config.chaos_controller is not None
        ) and not chaos:
            raise ScooppError(
                "chaos_plan/chaos_controller need a chaos+* channel kind"
            )
        worker_processes = config.worker_processes
        if worker_processes and channel_kind != "tcp":
            raise ScooppError(
                "process workers speak TCP; use channel_kind='tcp'"
            )
        same_node = config.same_node_transport
        if same_node and base_kind not in _SAMENODE_BASE_KINDS:
            raise ScooppError(
                "same_node_transport='shm' needs a socket channel kind "
                f"({', '.join(_SAMENODE_BASE_KINDS)}); "
                f"got {channel_kind!r}"
            )
        self.num_nodes = config.nodes
        self.metrics = MetricsRegistry()
        self.errors = ErrorCounter(self.metrics)
        self.chaos_controller = config.chaos_controller
        self.telemetry = config.telemetry
        self.sched_config = config.scheduler or SchedulerConfig()
        self.grain = (
            self.sched_config.grain
            if self.sched_config.grain is not None
            else GrainPolicy()
        )
        self.placement = coerce_policy(self.sched_config.placement)
        self.services = ChannelServices()
        # The shared client channel every proxy dials through, built from
        # the scheme registry.  Stacking order matters: the breaker sits
        # outside the chaos layer so injected faults count toward
        # tripping it, exactly like organic ones; the same-node router
        # sits innermost so chaos and breaker apply to shm-routed calls
        # exactly as they do to wire calls.
        client_kind = base_kind
        if same_node:
            client_kind = f"samenode+{client_kind}"
        if chaos:
            client_kind = f"chaos+{client_kind}"
        if config.breaker is not None:
            client_kind = f"breaker+{client_kind}"
        client: Channel = create_channel(
            client_kind,
            chaos_plan=config.chaos_plan,
            chaos_controller=config.chaos_controller,
            breaker_policy=config.breaker,
            metrics=self.metrics,
        )
        self.client_channel = client
        self.services.register_channel(client)
        run_id = uuid.uuid4().hex[:8]
        self.nodes: list[Node] = []
        # worker_handles and the next worker index are guarded by
        # _workers_lock: the control thread scales while application
        # threads read.
        self.worker_handles: list[ProcessNodeHandle] = []
        self._workers_lock = threading.Lock()
        self._backplane_channels: list[Channel] = []
        self._installed_tracer = None
        self._prev_sample_rate: float | None = None
        settings = config.node_settings()
        # What every worker boots with, kept for elastic re-spawns.
        self._spawn = dict(
            modules=config.worker_modules,
            grain=self.grain,
            placement_name=getattr(self.placement, "name", "round_robin"),
            settings=settings,
        )
        elastic = None
        if config.elastic is not None:
            low, high = config.elastic
            elastic = ElasticController(
                ElasticPolicy(min_workers=low, max_workers=high)
            )
            # The initial population must respect the bounds it will be
            # scaled within.
            worker_processes = max(low, min(worker_processes, high))
        stealing = self.sched_config.work_stealing
        self.control = ControlPlane(
            self,
            heartbeat_s=config.heartbeat_s,
            elastic=elastic,
            planner=RebalancePlanner(self.sched_config) if stealing else None,
        )
        self._closed = False
        try:
            for index in range(config.nodes):
                if base_kind == "loopback":
                    authority = f"parc-{run_id}-n{index}"
                elif base_kind == "shm":
                    authority = "auto"
                else:
                    authority = "127.0.0.1:0"
                # Server-side chaos wrapper: zero-fault, only contributes
                # the chaos+ scheme so node URIs route through the
                # (fault-injecting) shared client channel above.
                channel = create_channel(
                    f"chaos+{base_kind}" if chaos else base_kind,
                    metrics=self.metrics if chaos else None,
                )
                node = Node(
                    index=index,
                    channel=channel,
                    authority=authority,
                    services=self.services,
                    grain=self.grain,
                    placement=self.placement,
                    settings=settings,
                    metrics=self.metrics,
                )
                self.nodes.append(node)
                if same_node == "shm":
                    # Hidden backplane: a second listener serving the
                    # same host under the node's *socket* authority, so
                    # the SameNodeChannel's handshake-socket probe finds
                    # it.  advertise=False keeps the shm scheme out of
                    # node URIs — remote peers never learn about it.
                    from repro.shm import ShmChannel

                    backplane = ShmChannel(metrics=self.metrics)
                    bound = node.base_uri.split("://", 1)[1]
                    node.host.listen(backplane, bound, advertise=False)
                    self._backplane_channels.append(backplane)
            if worker_processes:
                self.worker_handles = spawn_workers(
                    count=worker_processes,
                    first_index=config.nodes,
                    **self._spawn,
                )
        except Exception:
            self.close()
            raise
        self._next_worker_index = config.nodes + len(self.worker_handles)
        self._redistribute_directory()
        if self.telemetry.enabled:
            # The application's main thread records against the home
            # node's tracer (its spans show in the home node's lane).
            # Both installs are restored by close().
            self._prev_sample_rate = get_sample_rate()
            set_sample_rate(self.telemetry.sample_rate)
            self._installed_tracer = self.home_node.telemetry.tracer
            set_global_tracer(self._installed_tracer)
        # Migration bookkeeping (explicit moves and the planner's).
        self._sched_lock = threading.Lock()
        self._sched_counters = {
            "cycles": 0,
            "steals": 0,
            "migrations": 0,
            "migration_failures": 0,
            "calls_moved": 0,
            "lost_calls": 0,
        }
        self._migration_callbacks: list[Any] = []
        self._inflight_migrations: set[str] = set()
        if elastic is not None:
            self._set_workers_gauge(len(self.worker_handles))
        self.control.start()

    @property
    def home_node(self) -> Node:
        return self.nodes[0]

    def node_by_uri(self, base_uri: str) -> Node | None:
        for node in self.nodes:
            if node.base_uri == base_uri:
                return node
        return None

    def stats(self) -> list[dict]:
        """One row per node (see :meth:`Node.report`).

        In-process nodes are read directly, process workers through
        their ``/om``; an unreachable worker has no row
        (``cluster.errors.stats`` counts it).
        """
        rows = [node.report() for node in self.nodes]
        for handle in self._handles():
            try:
                rows.append(dict(self._worker_om(handle).report()))
            except Exception:  # noqa: BLE001 - a dead worker has no row
                self.errors("stats")
        return rows

    def total_ios(self) -> int:
        return sum(row["ios"] for row in self.stats())

    def collect_telemetry(self) -> dict[str, dict[str, Any]]:
        """Pull every node's trace buffer and metrics into one mapping.

        Keys are node base URIs; values hold ``events`` (trace-event
        dicts), ``metrics`` (a :meth:`MetricsRegistry.export` document)
        and ``dropped`` (events lost to the ring buffer).  In-process
        nodes are read directly; process workers are scraped over the
        wire through their published ``/telemetry`` object, best-effort
        — a worker that already died simply has no entry.
        """
        out: dict[str, dict[str, Any]] = {}
        for node in self.nodes:
            tel = node.telemetry
            out[tel.node_label()] = {
                "events": tel.trace_events(),
                "metrics": tel.metrics_export(),
                "dropped": tel.dropped_events(),
            }
        for handle in self._handles():
            try:
                proxy = self.home_node.make_proxy(
                    f"{handle.base_uri}/telemetry"
                )
                out[proxy.node_label()] = {
                    "events": proxy.trace_events(),
                    "metrics": proxy.metrics_export(),
                    "dropped": proxy.dropped_events(),
                }
            except Exception:  # noqa: BLE001 - collection is best-effort
                self.errors("collect_telemetry")
        return out

    # -- what the control plane acts on ------------------------------------

    def observe(self) -> list[Observed]:
        """One fresh row fetch per directory entry, from the home node.

        Every other node — in-process ones too — is asked over the wire,
        through the shared client channel: that is what makes a closed
        or blackholed node *observably* dead, and what feeds the circuit
        breaker.
        """
        return self.home_node.om.observe()

    def deliver_verdicts(
        self, verdicts: dict[str, bool], news: dict[str, bool]
    ) -> None:
        """Apply the detector's verdicts everywhere.

        Every in-process OM gets every verdict (a no-op unless it is a
        transition for that OM); each reachable worker is sent *news*
        (the verdicts that changed since the last round) through its
        ``report_dead``/``report_alive``.
        """
        for node in self.nodes:
            for base_uri, alive in verdicts.items():
                if alive:
                    node.om.report_alive(base_uri)
                else:
                    node.om.report_dead(base_uri)
        if not news:
            return
        for handle in self._handles():
            if not verdicts.get(handle.base_uri, False):
                continue
            try:
                om = self._worker_om(handle)
                for base_uri, alive in news.items():
                    if base_uri == handle.base_uri:
                        continue
                    if alive:
                        om.report_alive(base_uri)
                    else:
                        om.report_dead(base_uri)
            except Exception:  # noqa: BLE001 - it will hear the next news
                self.errors("deliver_verdicts")

    def worker_count(self) -> int:
        with self._workers_lock:
            return len(self.worker_handles)

    def scale_out(self, queued: int, p99: float) -> None:
        """Spawn one more worker process and publish it to the cluster."""
        with self._workers_lock:
            index = self._next_worker_index
            self._next_worker_index += 1  # indices are never reused
        handles = spawn_workers(count=1, first_index=index, **self._spawn)
        with self._workers_lock:
            self.worker_handles.extend(handles)
            workers = len(self.worker_handles)
        self._redistribute_directory()
        self._note_scaled("scale_out", handles[0], workers, queued, p99)

    def scale_in(self, queued: int, p99: float) -> None:
        """Retire the newest worker process.

        The directory is republished *before* the worker is told to shut
        down so no new placement lands on it; then the survivors' object
        managers get a ``note_dead`` for its URI, which fires the normal
        node-down machinery — restartable grains stranded on the retiree
        respawn on the remaining nodes.
        """
        with self._workers_lock:
            if not self.worker_handles:
                return
            handle = self.worker_handles.pop()
            workers = len(self.worker_handles)
        self._redistribute_directory()
        try:
            handle.shutdown()
        except Exception:  # noqa: BLE001 - retirement is best-effort
            self.errors("retire")
        for node in self.nodes:
            node.om.note_dead(handle.base_uri)
        self._note_scaled("scale_in", handle, workers, queued, p99)

    def start_moves(self, moves: list[PlannedMove]) -> None:
        """One rebalance cycle's output: fire the planned migrations.

        Planned moves have distinct victims and targets, so each is its
        own run on the process executor.  Nothing waits for them: a
        migration's pause time (waiting out the victim grain's executing
        batch) can dwarf the rebalance interval under load, and blocking
        the control plane on it would starve the planner of fresh rows
        exactly when the cluster is most imbalanced.  In-flight grains
        are tracked so a path is never migrated twice concurrently, and
        ``max_migrations_per_cycle`` caps the total in flight.
        """
        with self._sched_lock:
            self._sched_counters["cycles"] += 1
            budget = (
                self.sched_config.max_migrations_per_cycle
                - len(self._inflight_migrations)
            )
            runnable = []
            for move in moves:
                if budget <= 0:
                    break
                if move.path in self._inflight_migrations:
                    continue
                self._inflight_migrations.add(move.path)
                runnable.append(move)
                budget -= 1
        for move in runnable:
            # Attached while it runs, as a one-way dispatch is: a move
            # blocks on the victim's pause, and holds its thread for it.
            executor().submit(
                functools.partial(self._execute_move, move), attach=True
            )

    # -- worker bookkeeping ------------------------------------------------

    def _handles(self) -> list[ProcessNodeHandle]:
        with self._workers_lock:
            return list(self.worker_handles)

    def _worker_om(self, handle: ProcessNodeHandle) -> Any:
        return self.home_node.make_proxy(f"{handle.base_uri}/om")

    def _redistribute_directory(self) -> None:
        """Push the current node+worker directory to every object manager."""
        handles = self._handles()
        directory = [node.base_uri for node in self.nodes] + [
            handle.base_uri for handle in handles
        ]
        for node in self.nodes:
            node.om.set_directory(directory)
        for handle in handles:
            try:
                handle.set_directory(directory)
            except Exception:  # noqa: BLE001 - worker may be mid-death
                self.errors("redistribute_directory")

    def _set_workers_gauge(self, workers: int) -> None:
        self.metrics.gauge(
            "cluster.elastic.workers", "worker processes currently live"
        ).set(workers)

    def _note_scaled(
        self,
        action: str,
        handle: ProcessNodeHandle,
        workers: int,
        queued: int,
        p99: float,
    ) -> None:
        self.metrics.counter(
            f"cluster.elastic.{action}", f"elastic {action} actions"
        ).inc()
        self._set_workers_gauge(workers)
        self._instant(
            f"cluster.elastic.{action}",
            worker=handle.base_uri,
            workers=workers,
            queued=queued,
            p99_s=p99,
        )

    def _instant(self, name: str, **args: Any) -> None:
        if not self.telemetry.enabled:
            return
        try:
            self.home_node.telemetry.tracer.instant("cluster", name, **args)
        except Exception:  # noqa: BLE001 - tracing is best-effort
            self.errors("trace")

    # -- adaptive scheduler ------------------------------------------------

    def on_migration(self, callback: Any) -> None:
        """Register *callback(result)* to fire after every migration.

        *result* is the dict :meth:`NodeScheduler.migrate_out` returns
        (old/new ObjRef URIs, moved-call counts).  Runtimes use this to
        repoint live proxy objects at the grain's new home; callbacks
        must not block — they run on the migration thread.
        """
        self._migration_callbacks.append(callback)

    def migrate_grain(self, grain_uri: str, target_base_uri: str) -> dict:
        """Explicitly move the grain published at *grain_uri*.

        *grain_uri* is any of the grain's published URIs (as found in
        an ObjRef or a placement report); *target_base_uri* is the
        destination node's base URI.  Blocks until the move commits and
        returns the migration result dict.  Raises
        :class:`~repro.errors.MigrationError` — with the grain still
        serving in place — if the move cannot be carried out.
        """
        scheme, _, rest = grain_uri.partition("://")
        authority, _, path = rest.partition("/")
        if not rest or not path:
            raise ScooppError(f"not a published grain URI: {grain_uri!r}")
        victim = f"{scheme}://{authority}"
        return self._execute_migration(victim, path, target_base_uri, "manual")

    def placement_report(self) -> dict:
        """Snapshot of where grains live and what the scheduler did.

        Returns the active policy name, per-node rows (grain counts,
        queued backlog, load, per-node migration
        counters), the cluster-level steal/migration counters, and the
        most recent placement decisions merged from every object
        manager's log.
        """
        node_rows = [
            {
                "base_uri": row["base_uri"],
                "index": row["index"],
                "grains": row["ios"],
                "queued": row["queued"],
                "load": row["load"],
                "migrations_out": row["migrations_out"],
                "migrations_in": row["migrations_in"],
                "steals": row["steals"],
            }
            for row in self.stats()
        ]
        decisions: list[dict] = []
        for node in self.nodes:
            decisions.extend(node.om.recent_decisions())
        decisions.sort(key=lambda d: d.get("ts", 0.0))
        with self._sched_lock:
            counters = dict(self._sched_counters)
        return {
            "policy": getattr(
                self.placement, "name", type(self.placement).__name__
            ),
            "work_stealing": self.sched_config.work_stealing,
            "nodes": node_rows,
            "last_decisions": decisions[-32:],
            **counters,
        }

    def _execute_move(self, move: PlannedMove) -> None:
        try:
            self._execute_migration(
                move.victim_uri, move.path, move.target_uri, move.kind
            )
        except Exception:  # noqa: BLE001 - a planned move may lose its race
            self.errors("planned_move")
        finally:
            with self._sched_lock:
                self._inflight_migrations.discard(move.path)

    def _execute_migration(
        self, victim_uri: str, path: str, target_uri: str, kind: str
    ) -> dict:
        node = self.node_by_uri(victim_uri)
        try:
            if node is not None:
                result = node.sched.migrate_out(path, target_uri, kind)
            else:
                proxy = self.home_node.make_proxy(f"{victim_uri}/sched")
                result = dict(proxy.migrate_out(path, target_uri, kind))
        except Exception:
            with self._sched_lock:
                self._sched_counters["migration_failures"] += 1
            self.metrics.counter(
                "cluster.sched.migration_failures",
                "grain migrations that aborted",
            ).inc()
            raise
        with self._sched_lock:
            self._sched_counters["migrations"] += 1
            self._sched_counters["calls_moved"] += result.get("moved_calls", 0)
            self._sched_counters["lost_calls"] += result.get("lost_calls", 0)
            if kind == "steal":
                self._sched_counters["steals"] += 1
        self.metrics.counter(
            "cluster.sched.migrations", "grain migrations executed"
        ).inc()
        if kind == "steal":
            self.metrics.counter(
                "cluster.sched.steals", "idle-node work steals"
            ).inc()
        self._instant(
            "cluster.sched.migration",
            kind=kind,
            victim=victim_uri,
            target=target_uri,
            path=path,
            moved_calls=result.get("moved_calls", 0),
        )
        for callback in list(self._migration_callbacks):
            try:
                callback(result)
            except Exception:  # noqa: BLE001 - listeners must not break moves
                self.errors("migration_listener")
        return result

    def close(self) -> None:
        """Shut the cluster down without hanging on in-flight calls.

        Order matters: the control plane first (it spawns and retires
        the very workers the rest of teardown is about to shut down, a
        vanishing peer must not become a verdict, and a migration
        mid-flight would race node teardown), then worker processes
        (their shutdown rides a pipe per worker, not our channels),
        then the *client* channels — force-closing pooled sockets makes
        any in-flight or late call fail fast with
        :class:`~repro.errors.ChannelClosedError` instead of blocking
        node teardown — and only then the nodes themselves.
        """
        if self._closed:
            return
        self._closed = True
        self.control.stop()
        if self._installed_tracer is not None:
            # Only undo our own installs: a nested cluster created after
            # us may have re-pointed the globals, and its close() will
            # restore them itself.
            if get_global_tracer() is self._installed_tracer:
                set_global_tracer(None)
            if (
                self._prev_sample_rate is not None
                and get_sample_rate() == self.telemetry.sample_rate
            ):
                set_sample_rate(self._prev_sample_rate)
            self._installed_tracer = None
        closers = [handle.shutdown for handle in self._handles()]
        closers.append(self.services.close_all)
        # Hidden backplane listeners: ChannelServices only adopts the
        # first channel per scheme, so every node's shm listener past
        # the first needs an explicit close to unlink its handshake
        # socket and release the ring segments.
        closers.extend(ch.close for ch in self._backplane_channels)
        closers.extend(node.close for node in self.nodes)
        for closer in closers:
            try:
                closer()
            except Exception:  # noqa: BLE001 - teardown must finish
                self.errors("teardown")
        if self.chaos_controller is not None:
            self.chaos_controller.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
