"""Cluster: boots N nodes and wires their object managers together.

The "application entry code" of §3.2: create one OM per node, register the
factories in each node's boot code, and hand every OM the cluster
directory so they can exchange loads and statistics.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import TYPE_CHECKING, Any, Literal

from repro.channels.base import Channel
from repro.channels.breaker import BreakerPolicy
from repro.channels.factory import available_kinds, create as create_channel
from repro.channels.services import ChannelServices
from repro.core.grain import GrainPolicy
from repro.cluster.node import Node
from repro.cluster.placement import coerce_policy
from repro.errors import ScooppError
from repro.sched import PlannedMove, RebalancePlanner, SchedulerConfig
from repro.telemetry import (
    MetricsRegistry,
    TelemetryConfig,
    get_global_tracer,
    get_sample_rate,
    set_global_tracer,
    set_sample_rate,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos import ChaosController, FaultPlan

#: ``chaos+<base>`` routes every call through a
#: :class:`~repro.chaos.FaultyChannel` fed by the cluster's fault plan
#: and controller — the fault-injection configuration of the test suite.
ChannelKind = Literal[
    "loopback",
    "tcp",
    "aio",
    "shm",
    "chaos+loopback",
    "chaos+tcp",
    "chaos+aio",
    "chaos+shm",
]

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

    def __init__(
        self,
        num_nodes: int,
        channel_kind: ChannelKind = "loopback",
        worker_processes: int = 0,
        worker_modules: tuple[str, ...] = (),
        heartbeat_s: float | None = None,
        breaker: BreakerPolicy | None = None,
        chaos_plan: "FaultPlan | None" = None,
        chaos_controller: "ChaosController | None" = None,
        telemetry: TelemetryConfig | None = None,
        same_node_transport: str | None = None,
        mailbox_depth: int = 0,
        priority: dict | None = None,
        shed_policy: str | None = None,
        elastic: tuple | None = None,
        elastic_interval_s: float = 1.0,
        scheduler: SchedulerConfig | None = None,
    ) -> None:
        """*worker_processes* additional nodes run as separate OS
        processes over TCP (see :mod:`repro.cluster.proc`); they import
        *worker_modules* at boot to register the application's parallel
        classes.  Process workers force ``channel_kind="tcp"``.

        *heartbeat_s* starts a failure-detector loop on every node's
        object manager.  *breaker* wraps the shared client channel in a
        per-authority circuit breaker.  *chaos_plan* /
        *chaos_controller* feed the fault-injection layer and require a
        ``chaos+*`` channel kind.  *telemetry* enables distributed
        tracing and per-node metrics (see
        :class:`~repro.telemetry.TelemetryConfig`).

        *same_node_transport* = ``"shm"`` gives every node a hidden
        shared-memory listener on its socket authority and wraps the
        client channel in a :class:`~repro.shm.SameNodeChannel`, so
        calls between co-located processes ride ring buffers while
        remote peers stay on the wire — no URI or directory changes.

        *mailbox_depth*, *priority* and *shed_policy* are the flow-control
        knobs, threaded verbatim into every node (in-process and worker
        alike); see :class:`~repro.core.config.ParcConfig`.  *elastic*
        = ``(min, max)`` starts a control loop that samples cluster
        queue depth and method-latency p99 every *elastic_interval_s*
        seconds and spawns or retires worker processes within those
        bounds (requires ``worker_processes >= 1``); the initial worker
        count is clamped into the bounds.

        *scheduler* is a :class:`~repro.sched.SchedulerConfig` bundling
        the grain policy, placement policy and the adaptive-rebalancing
        knobs (work stealing, live migration); ``None`` means
        ``SchedulerConfig()``.  When ``scheduler.work_stealing`` is
        on, a daemon loop samples every node's load report each
        ``rebalance_interval_s`` seconds and live-migrates queued grains
        off overloaded nodes.
        """
        if num_nodes < 1:
            raise ScooppError(f"cluster needs >= 1 node, got {num_nodes}")
        chaos = channel_kind.startswith("chaos+")
        base_kind = channel_kind.split("+", 1)[1] if chaos else channel_kind
        if base_kind not in _BASE_KINDS or base_kind not in available_kinds():
            raise ScooppError(f"unknown channel kind {channel_kind!r}")
        if (chaos_plan is not None or chaos_controller is not None) and not chaos:
            raise ScooppError(
                "chaos_plan/chaos_controller need a chaos+* channel kind"
            )
        if worker_processes < 0:
            raise ScooppError("worker_processes cannot be negative")
        if worker_processes and channel_kind != "tcp":
            raise ScooppError(
                "process workers speak TCP; use channel_kind='tcp'"
            )
        if same_node_transport not in (None, "shm"):
            raise ScooppError(
                "same_node_transport must be None or 'shm', got "
                f"{same_node_transport!r}"
            )
        if same_node_transport and base_kind not in _SAMENODE_BASE_KINDS:
            raise ScooppError(
                "same_node_transport='shm' needs a socket channel kind "
                f"({', '.join(_SAMENODE_BASE_KINDS)}); "
                f"got {channel_kind!r}"
            )
        if elastic is not None:
            elastic = tuple(elastic)
            if len(elastic) != 2 or elastic[0] < 1 or elastic[1] < elastic[0]:
                raise ScooppError(
                    f"elastic bounds need 1 <= min <= max, got {elastic!r}"
                )
            if worker_processes < 1:
                raise ScooppError(
                    "elastic scaling needs worker_processes >= 1"
                )
            # The initial population must respect the bounds it will be
            # scaled within.
            worker_processes = max(elastic[0], min(worker_processes, elastic[1]))
        self.num_nodes = num_nodes
        self.channel_kind = channel_kind
        self.heartbeat_s = heartbeat_s
        self.same_node_transport = same_node_transport
        self.mailbox_depth = mailbox_depth
        self.priority = priority
        self.shed_policy = shed_policy
        self.elastic = elastic
        self.metrics = MetricsRegistry()
        self.chaos_controller = chaos_controller
        self.chaos_plan = chaos_plan
        self.telemetry = (
            telemetry if telemetry is not None else TelemetryConfig()
        )
        if scheduler is None:
            scheduler = SchedulerConfig()
        self.sched_config = scheduler
        self.grain = (
            scheduler.grain if scheduler.grain is not None else GrainPolicy()
        )
        self.placement = coerce_policy(scheduler.placement)
        self.services = ChannelServices()
        # The shared client channel every proxy dials through, built from
        # the scheme registry.  Stacking order matters: the breaker sits
        # outside the chaos layer so injected faults count toward
        # tripping it, exactly like organic ones; the same-node router
        # sits innermost so chaos and breaker apply to shm-routed calls
        # exactly as they do to wire calls.
        client_kind = base_kind
        if same_node_transport:
            client_kind = f"samenode+{client_kind}"
        if chaos:
            client_kind = f"chaos+{client_kind}"
        if breaker is not None:
            client_kind = f"breaker+{client_kind}"
        client: Channel = create_channel(
            client_kind,
            chaos_plan=chaos_plan,
            chaos_controller=chaos_controller,
            breaker_policy=breaker,
            metrics=self.metrics,
        )
        self.client_channel = client
        self.services.register_channel(client)
        run_id = uuid.uuid4().hex[:8]
        self.nodes: list[Node] = []
        self._backplane_channels: list[Channel] = []
        self._installed_tracer = None
        self._prev_sample_rate: float | None = None
        try:
            for index in range(num_nodes):
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
                    metrics=self.metrics,
                    telemetry=self.telemetry,
                    mailbox_depth=mailbox_depth,
                    priority=priority,
                    shed_policy=shed_policy,
                )
                self.nodes.append(node)
                if same_node_transport == "shm":
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
        except Exception:
            self.close()
            raise
        self.worker_handles = []
        # Spawn ingredients, kept for elastic scale-out re-spawns.
        self._worker_modules = tuple(worker_modules)
        self._placement_name = getattr(self.placement, "name", "round_robin")
        if worker_processes:
            from repro.cluster.proc import spawn_workers

            try:
                self.worker_handles = spawn_workers(
                    count=worker_processes,
                    first_index=num_nodes,
                    modules=worker_modules,
                    grain=self.grain,
                    placement_name=self._placement_name,
                    telemetry=self.telemetry,
                    same_node_transport=same_node_transport,
                    mailbox_depth=mailbox_depth,
                    priority=priority,
                    shed_policy=shed_policy,
                )
            except Exception:
                self.close()
                raise
        directory = [node.base_uri for node in self.nodes] + [
            handle.base_uri for handle in self.worker_handles
        ]
        for node in self.nodes:
            node.om.set_directory(directory)
        for handle in self.worker_handles:
            handle.set_directory(directory)
        if heartbeat_s is not None:
            for node in self.nodes:
                node.om.start_heartbeat(heartbeat_s)
        if self.telemetry.enabled:
            # The application's main thread records against the home
            # node's tracer (its spans show in the home node's lane).
            # Both installs are restored by close().
            self._prev_sample_rate = get_sample_rate()
            set_sample_rate(self.telemetry.sample_rate)
            self._installed_tracer = self.home_node.telemetry.tracer
            set_global_tracer(self._installed_tracer)
        # Elastic worker scaling: a daemon loop samples cluster pressure
        # and spawns/retires worker processes within the elastic bounds.
        self._elastic_lock = threading.Lock()
        self._elastic_stop = threading.Event()
        self._elastic_thread: threading.Thread | None = None
        self._next_worker_index = num_nodes + len(self.worker_handles)
        if elastic is not None:
            from repro.flow import ElasticController, ElasticPolicy

            self._elastic_controller = ElasticController(
                ElasticPolicy(min_workers=elastic[0], max_workers=elastic[1])
            )
            self._elastic_interval_s = elastic_interval_s
            self.metrics.gauge(
                "cluster.elastic.workers", "worker processes currently live"
            ).set(len(self.worker_handles))
            self._elastic_thread = threading.Thread(
                target=self._elastic_loop, name="parc-elastic", daemon=True
            )
            self._elastic_thread.start()
        # Adaptive rebalancing: a daemon loop gathers per-node scheduler
        # reports, asks the planner for moves, and executes each as a
        # live grain migration (see repro.sched).
        self._sched_lock = threading.Lock()
        self._sched_stop = threading.Event()
        self._sched_thread: threading.Thread | None = None
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
        self._planner = RebalancePlanner(self.sched_config)
        if self.sched_config.work_stealing:
            self._sched_thread = threading.Thread(
                target=self._sched_loop, name="parc-sched", daemon=True
            )
            self._sched_thread.start()
        self._closed = False

    @property
    def home_node(self) -> Node:
        return self.nodes[0]

    def node_by_uri(self, base_uri: str) -> Node | None:
        for node in self.nodes:
            if node.base_uri == base_uri:
                return node
        return None

    def total_ios(self) -> int:
        local = sum(node.io_count() for node in self.nodes)
        remote = sum(
            handle.stats()["ios"]
            for handle in getattr(self, "worker_handles", [])
        )
        return local + remote

    def stats(self) -> list[dict]:
        rows = [node.stats() for node in self.nodes]
        rows.extend(
            handle.stats() for handle in getattr(self, "worker_handles", [])
        )
        return rows

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
        for handle in getattr(self, "worker_handles", []):
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
                continue
        return out

    # -- elastic workers ---------------------------------------------------

    def _elastic_loop(self) -> None:
        """Sampling thread: pressure in, scale decisions out.

        Every error is swallowed — a failed sample (a worker mid-death,
        a stats timeout) must never kill the control loop, only skip the
        tick.
        """
        while not self._elastic_stop.wait(self._elastic_interval_s):
            try:
                self._elastic_tick()
            except Exception:  # noqa: BLE001 - the loop must survive
                pass

    def _elastic_tick(self) -> None:
        """One control-loop sample: observe pressure, maybe act."""
        queued = 0
        p99: float | None = None
        for row in self.stats():
            queued += row.get("queued", 0)
            row_p99 = row.get("p99_s")
            if row_p99 is not None and (p99 is None or row_p99 > p99):
                p99 = row_p99
        with self._elastic_lock:
            workers = len(self.worker_handles)
        self.metrics.gauge(
            "cluster.elastic.workers", "worker processes currently live"
        ).set(workers)
        decision = self._elastic_controller.observe(workers, queued, p99)
        if decision == "out":
            self._scale_out(queued, p99)
        elif decision == "in":
            self._scale_in(queued, p99)

    def _scale_out(self, queued: int, p99: float | None) -> None:
        """Spawn one more worker process and publish it to the cluster."""
        from repro.cluster.proc import spawn_workers

        with self._elastic_lock:
            index = self._next_worker_index
            self._next_worker_index += 1  # indices are never reused
        handles = spawn_workers(
            count=1,
            first_index=index,
            modules=self._worker_modules,
            grain=self.grain,
            placement_name=self._placement_name,
            telemetry=self.telemetry,
            same_node_transport=self.same_node_transport,
            mailbox_depth=self.mailbox_depth,
            priority=self.priority,
            shed_policy=self.shed_policy,
        )
        with self._elastic_lock:
            self.worker_handles.extend(handles)
            workers = len(self.worker_handles)
        self._redistribute_directory()
        self.metrics.counter(
            "cluster.elastic.scale_out", "elastic scale-out actions"
        ).inc()
        self.metrics.gauge(
            "cluster.elastic.workers", "worker processes currently live"
        ).set(workers)
        self._elastic_instant(
            "cluster.elastic.scale_out",
            worker=handles[0].base_uri,
            workers=workers,
            queued=queued,
            p99_s=p99,
        )

    def _scale_in(self, queued: int, p99: float | None) -> None:
        """Retire the newest worker process.

        The directory is republished *before* the worker is told to shut
        down so no new placement lands on it; then the survivors' object
        managers get a ``note_dead`` for its URI, which fires the normal
        node-down machinery — restartable grains stranded on the retiree
        respawn on the remaining nodes.
        """
        with self._elastic_lock:
            if not self.worker_handles:
                return
            handle = self.worker_handles.pop()
            workers = len(self.worker_handles)
        self._redistribute_directory()
        try:
            handle.shutdown()
        except Exception:  # noqa: BLE001 - retirement is best-effort
            pass
        for node in self.nodes:
            node.om.note_dead(handle.base_uri)
        self.metrics.counter(
            "cluster.elastic.scale_in", "elastic scale-in actions"
        ).inc()
        self.metrics.gauge(
            "cluster.elastic.workers", "worker processes currently live"
        ).set(workers)
        self._elastic_instant(
            "cluster.elastic.scale_in",
            worker=handle.base_uri,
            workers=workers,
            queued=queued,
            p99_s=p99,
        )

    def _redistribute_directory(self) -> None:
        """Push the current node+worker directory to every object manager."""
        with self._elastic_lock:
            handles = list(self.worker_handles)
        directory = [node.base_uri for node in self.nodes] + [
            handle.base_uri for handle in handles
        ]
        for node in self.nodes:
            node.om.set_directory(directory)
        for handle in handles:
            try:
                handle.set_directory(directory)
            except Exception:  # noqa: BLE001 - worker may be mid-death
                pass

    def _elastic_instant(self, name: str, **args: Any) -> None:
        if not self.telemetry.enabled:
            return
        try:
            self.home_node.telemetry.tracer.instant("cluster", name, **args)
        except Exception:  # noqa: BLE001 - tracing is best-effort
            pass

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
        stealable backlog, load, per-node migration counters), the
        cluster-level steal/migration counters, and the most recent
        placement decisions merged from every object manager's log.
        """
        node_rows = []
        for report in self._scheduler_reports():
            node_rows.append(
                {
                    "base_uri": report.get("base_uri"),
                    "index": report.get("index"),
                    "grains": report.get("ios", 0),
                    "queued": report.get("queued", 0),
                    "load": report.get("load", 0.0),
                    "migrations_out": report.get("migrations_out", 0),
                    "migrations_in": report.get("migrations_in", 0),
                    "steals": report.get("steals", 0),
                }
            )
        decisions: list[dict] = []
        for node in self.nodes:
            try:
                decisions.extend(node.om.recent_decisions())
            except Exception:  # noqa: BLE001 - reporting is best-effort
                pass
        decisions.sort(key=lambda d: d.get("ts", 0.0))
        with self._sched_lock:
            counters = dict(self._sched_counters)
        return {
            "policy": getattr(
                self.placement, "name", type(self.placement).__name__
            ),
            "work_stealing": self.sched_config.work_stealing,
            "migration": self.sched_config.migration,
            "nodes": node_rows,
            "last_decisions": decisions[-32:],
            **counters,
        }

    def _scheduler_reports(self) -> list[dict]:
        """One load report per reachable node, in-process and worker."""
        reports: list[dict] = []
        for node in self.nodes:
            try:
                reports.append(node.sched.report())
            except Exception:  # noqa: BLE001 - a node mid-teardown
                pass
        with self._elastic_lock:
            handles = list(self.worker_handles)
        for handle in handles:
            try:
                proxy = self.home_node.make_proxy(f"{handle.base_uri}/sched")
                reports.append(dict(proxy.report()))
            except Exception:  # noqa: BLE001 - a dead worker just skips
                pass
        return reports

    def _sched_loop(self) -> None:
        """Rebalance thread: reports in, migrations out.

        Mirrors the elastic loop's survival rule — a failed tick (a
        worker dying mid-report, a migration racing teardown) skips the
        cycle, never kills the loop.
        """
        interval = self.sched_config.rebalance_interval_s
        while not self._sched_stop.wait(interval):
            try:
                self._sched_tick()
            except Exception:  # noqa: BLE001 - the loop must survive
                pass

    def _sched_tick(self) -> None:
        """One rebalance cycle: gather, plan, fire migrations.

        Planned moves have distinct victims and targets, so each runs
        on its own thread.  The tick never joins them: a migration's
        pause time (waiting out the victim grain's executing batch)
        can dwarf the rebalance interval under load, and blocking the
        loop on it would starve the planner of fresh reports exactly
        when the cluster is most imbalanced.  In-flight grains are
        tracked so a path is never migrated twice concurrently, and
        ``max_migrations_per_cycle`` caps the total in flight.
        """
        reports = self._scheduler_reports()
        moves = self._planner.plan(reports, time.monotonic())
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
            threading.Thread(
                target=self._execute_move,
                args=(move,),
                name="parc-migrate",
                daemon=True,
            ).start()

    def _execute_move(self, move: PlannedMove) -> None:
        try:
            self._execute_migration(
                move.victim_uri, move.path, move.target_uri, move.kind
            )
        except Exception:  # noqa: BLE001 - counted in _execute_migration
            pass
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
        self._elastic_instant(
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
                pass
        return result

    def close(self) -> None:
        """Shut the cluster down without hanging on in-flight calls.

        Order matters: worker processes first (their shutdown rides
        multiprocessing queues, not our channels), then the failure
        detectors (so a vanishing peer is not gossip-worthy news), then
        the *client* channels — force-closing pooled sockets makes any
        in-flight or late call fail fast with
        :class:`~repro.errors.ChannelClosedError` instead of blocking
        node teardown — and only then the nodes themselves.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        # The control loops first: the elastic loop spawns and retires
        # the very workers the rest of teardown is about to shut down,
        # and a migration mid-flight would race node teardown.
        for stop_attr, thread_attr in (
            ("_sched_stop", "_sched_thread"),
            ("_elastic_stop", "_elastic_thread"),
        ):
            stop = getattr(self, stop_attr, None)
            if stop is not None:
                stop.set()
            thread = getattr(self, thread_attr, None)
            if thread is not None:
                # A tick blocked on a dying worker's stats() can hold
                # the thread; it is a daemon, so a bounded join is
                # enough.
                thread.join(timeout=10.0)
        if getattr(self, "_installed_tracer", None) is not None:
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
        for handle in getattr(self, "worker_handles", []):
            try:
                handle.shutdown()
            except Exception:  # noqa: BLE001 - teardown must finish
                pass
        for node in self.nodes:
            try:
                node.om.stop_heartbeat()
            except Exception:  # noqa: BLE001 - teardown must finish
                pass
        self.services.close_all()
        # Hidden backplane listeners: ChannelServices only adopts the
        # first channel per scheme, so every node's shm listener past
        # the first needs an explicit close to unlink its handshake
        # socket and release the ring segments.
        for backplane in getattr(self, "_backplane_channels", []):
            try:
                backplane.close()
            except Exception:  # noqa: BLE001 - teardown must finish
                pass
        for node in self.nodes:
            try:
                node.close()
            except Exception:  # noqa: BLE001 - teardown must finish
                pass
        controller = getattr(self, "chaos_controller", None)
        if controller is not None:
            controller.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
