"""Node: one processing element — host, object manager, factory.

Fig. 3's per-node cast: the **OM** (object manager) owns placement and
grain decisions for objects created on this node; the **factory** (the
``RemoteFactory`` of Fig. 6) instantiates implementation objects on
request from remote POs; the remoting host carries both plus every IO the
node ends up hosting.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Sequence

from repro.channels.base import Channel
from repro.channels.services import ChannelServices
from repro.cluster.control import ErrorCounter, Observed
from repro.core.config import NodeSettings
from repro.core.grain import AdaptiveGrainController, GrainDecision, GrainPolicy
from repro.core.impl import ImplementationObject
from repro.core.model import parallel_class_table
from repro.cluster.placement import PlacementPolicy, coerce_policy
from repro.errors import (
    ChannelError,
    PlacementError,
    RemoteInvocationError,
    RemotingError,
    ScooppError,
)
from repro.executor import Executor, executor
from repro.remoting import MarshalByRefObject, RemotingHost
from repro.remoting.proxy import RemoteProxy
from repro.sched.engine import NodeScheduler
from repro.sched.view import ClusterView, NodeView
from repro.telemetry import MetricsRegistry, summarize_method_histograms
from repro.telemetry.node import NodeTelemetry
from repro.telemetry.tracer import Tracer

#: How long a sampled peer-load vector stays fresh (seconds).  Placement
#: is latency-sensitive: one remote load query per peer per creation would
#: dwarf the creation itself, so loads are cached briefly — the paper's
#: OMs similarly exchange load information periodically, not per call.
LOAD_CACHE_TTL_S = 0.05

#: Refresh peer execution statistics every this many grain decisions.
STATS_REFRESH_PERIOD = 32

#: Placement decisions kept for ``placement_report()`` introspection.
DECISION_LOG_SIZE = 32

#: Grains listed in a node's row (deepest backlogs first).
REPORT_TOP_GRAINS = 16


class ObjectManager(MarshalByRefObject):
    """Per-node manager: load reporting, placement, grain decisions.

    The remotely callable surface (``report``, ``class_stats``,
    ``recent_decisions``, ``report_dead``/``report_alive``) is what peer
    OMs and the cluster's control plane use; ``decide_and_place`` is the
    local entry POs go through at construction (Fig. 5's "contact OM to
    get a (host) and tcp (port) for the new object").
    """

    def __init__(
        self,
        node: "Node",
        grain: GrainPolicy | AdaptiveGrainController,
        placement: PlacementPolicy,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.node = node
        self.grain = grain
        self.placement = coerce_policy(placement)
        self.metrics = metrics
        self._errors = ErrorCounter(metrics)
        self._lock = threading.Lock()
        self._directory: list[str] = []  # node base URIs, cluster order
        # Proxies to peer objects (om, factory), one per URI.
        self._peers: dict[str, RemoteProxy] = {}
        self._reports_cache: list[dict | None] | None = None
        self._loads_stamp = 0.0
        self._decisions = 0
        self._recent_decisions: deque[dict] = deque(maxlen=DECISION_LOG_SIZE)
        # Placements made since the last load refresh: the cache alone
        # would send every creation in a burst to the same node.
        self._placed_since_refresh: dict[int, int] = {}
        # Nodes observed unreachable; excluded from placement until a
        # later probe sees them again.
        self._dead: set[str] = set()
        # Liveness listeners, fired on alive<->dead transitions.
        self._down_callbacks: list = []
        self._up_callbacks: list = []

    # -- remote surface ----------------------------------------------------

    def report(self) -> dict:
        """This node's row (see :meth:`Node.report`)."""
        return self.node.report()

    def recent_decisions(self) -> list:
        """The last placement decisions this manager made (newest last)."""
        with self._lock:
            return [dict(d) for d in self._recent_decisions]

    def class_stats(self, class_name: str) -> tuple:
        """(avg exec seconds, samples) for *class_name* on this node."""
        if isinstance(self.grain, AdaptiveGrainController):
            return self.grain.stats_for(class_name)
        return (0.0, 0)

    def report_dead(self, base_uri: str) -> None:
        """Verdict receiver: the control plane declared *base_uri* dead.

        A verdict about ourselves is ignored — we are demonstrably alive
        to be handling this call.
        """
        if base_uri != self.node.base_uri:
            self.note_dead(base_uri)

    def report_alive(self, base_uri: str) -> None:
        """Verdict receiver: the control plane saw *base_uri* answer."""
        if base_uri != self.node.base_uri:
            self.note_alive(base_uri)

    # -- local surface --------------------------------------------------------

    def set_directory(self, directory: Sequence[str]) -> None:
        with self._lock:
            self._directory = list(directory)
            self._peers.clear()
            self._reports_cache = None

    def directory(self) -> list[str]:
        """The cluster directory (node base URIs) as last set."""
        with self._lock:
            return list(self._directory)

    def decide_and_place(self, class_name: str) -> tuple[GrainDecision, str | None]:
        """Grain decision plus target factory URI (None = agglomerate)."""
        with self._lock:
            self._decisions += 1
            refresh_stats = self._decisions % STATS_REFRESH_PERIOD == 0
        if refresh_stats:
            self._merge_peer_stats(class_name)
        decision = self.grain.decide(class_name)
        tracer = self._tracer()
        if tracer is not None:
            tracer.instant(
                "grain",
                "grain.decide",
                class_name=class_name,
                **decision.trace_args(),
            )
        if decision.agglomerate:
            return decision, None
        view = self.cluster_view(class_name)
        if not view.live():
            raise PlacementError(
                "no live nodes available for placement "
                f"(directory of {len(view.nodes)}, all unreachable)"
            )
        chosen = self.placement.choose(view, self._home_index())
        if not 0 <= chosen < len(view.nodes) or not view.nodes[chosen].alive:
            raise PlacementError(
                f"policy {self.placement.name} chose invalid index {chosen}"
            )
        target = view.nodes[chosen].base_uri
        with self._lock:
            self._placed_since_refresh[chosen] = (
                self._placed_since_refresh.get(chosen, 0) + 1
            )
            self._recent_decisions.append(
                {
                    "class_name": class_name,
                    "chosen": chosen,
                    "base_uri": target,
                    "policy": self.placement.name,
                    "home": self.node.base_uri,
                    "ts": time.time(),
                }
            )
        return decision, f"{target}/factory"

    def cluster_view(self, class_name: str | None = None) -> ClusterView:
        """Snapshot the cluster as a :class:`ClusterView`.

        One row per directory entry: cached peer rows (dead peers
        flagged rather than dropped, so policies see directory
        indices), with the load, queue and service-time figures each
        node last reported.
        """
        directory = self._directory_snapshot()
        reports = self._current_reports()
        with self._lock:
            dead = set(self._dead)
            placed = dict(self._placed_since_refresh)
        nodes = []
        for index, base_uri in enumerate(directory):
            report = reports[index] if index < len(reports) else None
            alive = base_uri not in dead and report is not None
            nodes.append(
                NodeView(
                    index=index,
                    base_uri=base_uri,
                    alive=alive,
                    load=(
                        report["load"] + placed.get(index, 0)
                        if alive
                        else 0.0
                    ),
                    queue_depth=int(report["queued"]) if alive else 0,
                    ios=int(report["ios"]) if alive else 0,
                    avg_service_s=(
                        float(report.get("avg_service_s", 0.0))
                        if alive
                        else 0.0
                    ),
                    p99_s=(
                        float(report.get("p99_s", 0.0)) if alive else 0.0
                    ),
                )
            )
        return ClusterView(nodes=tuple(nodes), class_name=class_name)

    def note_dead(self, base_uri: str) -> None:
        """Record *base_uri* as unreachable (excluded from placement).

        On the alive→dead *transition* (not steady state) this emits the
        ``cluster.node_down`` counter and invokes registered listeners in
        a detached executor run — listeners respawn grains, which places
        new IOs, which may re-enter this manager.
        """
        with self._lock:
            transition = base_uri not in self._dead
            self._dead.add(base_uri)
            self._reports_cache = None
        if transition:
            self._emit_liveness_event(base_uri, alive=False)

    def note_alive(self, base_uri: str) -> None:
        with self._lock:
            transition = base_uri in self._dead
            self._dead.discard(base_uri)
            self._reports_cache = None
        if transition:
            self._emit_liveness_event(base_uri, alive=True)

    def dead_nodes(self) -> list[str]:
        with self._lock:
            return sorted(self._dead)

    def on_node_down(self, callback) -> None:  # type: ignore[no-untyped-def]
        """Register ``callback(base_uri)`` for alive→dead transitions."""
        with self._lock:
            self._down_callbacks.append(callback)

    def on_node_up(self, callback) -> None:  # type: ignore[no-untyped-def]
        """Register ``callback(base_uri)`` for dead→alive transitions."""
        with self._lock:
            self._up_callbacks.append(callback)

    def _emit_liveness_event(self, base_uri: str, alive: bool) -> None:
        if self.metrics is not None:
            name = "cluster.node_up" if alive else "cluster.node_down"
            self.metrics.counter(name, "liveness transitions observed").inc()
        with self._lock:
            callbacks = list(
                self._up_callbacks if alive else self._down_callbacks
            )
        if not callbacks:
            return

        def run() -> None:
            for callback in callbacks:
                try:
                    callback(base_uri)
                except Exception:  # noqa: BLE001 - listeners must not kill us
                    self._errors("liveness_listener")

        # Detached: note_dead fires on placement/probe hot paths and a
        # listener may call back into placement (grain respawn).
        executor().submit(run, attach=True)

    def observe(self) -> list[Observed]:
        """Fetch one fresh row per directory entry (our own directly).

        Changes no liveness state — callers decide what the observation
        means.  A peer whose ``report`` *answers* with an error is
        reachable but has no row this round (``cluster.errors.report``
        counts it); only a transport failure makes it unreachable.
        """
        observed = []
        for base_uri in self._directory_snapshot():
            row, reachable = None, True
            try:
                if base_uri == self.node.base_uri:
                    row = self.node.report()
                else:
                    row = dict(self.peer(f"{base_uri}/om").report())
            except RemoteInvocationError:
                self._errors("report")
            except (ChannelError, RemotingError, OSError):
                reachable = False
            observed.append(Observed(base_uri, row, reachable))
        return observed

    def probe_peers(self) -> dict[str, bool]:
        """Observe every directory peer; updates liveness, returns the map."""
        results: dict[str, bool] = {}
        for base_uri, _row, reachable in self.observe():
            results[base_uri] = reachable
            if reachable:
                self.report_alive(base_uri)
            else:
                self.report_dead(base_uri)
        return results

    def note_created(self) -> None:
        self.node.note_io_created()

    # -- internals ---------------------------------------------------------

    def _tracer(self) -> Tracer | None:
        """This node's tracer when cluster telemetry is on, else None."""
        telemetry = getattr(self.node, "telemetry", None)
        if telemetry is not None and telemetry.enabled:
            return telemetry.tracer
        return None

    def _directory_snapshot(self) -> list[str]:
        with self._lock:
            if not self._directory:
                raise ScooppError(
                    "object manager has no cluster directory; was the "
                    "cluster booted?"
                )
            return list(self._directory)

    def _home_index(self) -> int:
        directory = self._directory_snapshot()
        try:
            return directory.index(self.node.base_uri)
        except ValueError:
            return 0

    def peer(self, uri: str) -> RemoteProxy:
        """The proxy for a peer's object at *uri*, built once per
        directory (``set_directory`` drops them all)."""
        with self._lock:
            proxy = self._peers.get(uri)
            if proxy is None:
                proxy = self._peers[uri] = self.node.make_proxy(uri)
            return proxy

    def _current_reports(self) -> list[dict | None]:
        """Per-directory-slot rows (None = no row), cached for
        ``LOAD_CACHE_TTL_S``; an unreachable peer is noted dead."""
        now = time.monotonic()
        with self._lock:
            if (
                self._reports_cache is not None
                and now - self._loads_stamp < LOAD_CACHE_TTL_S
            ):
                return self._reports_cache
        reports: list[dict | None] = []
        for base_uri, row, reachable in self.observe():
            reports.append(row)
            if not reachable:
                self.note_dead(base_uri)
        with self._lock:
            self._reports_cache = reports
            self._loads_stamp = now
            self._placed_since_refresh.clear()
        return reports

    def _merge_peer_stats(self, class_name: str) -> None:
        if not isinstance(self.grain, AdaptiveGrainController):
            return
        for base_uri in self._directory_snapshot():
            if base_uri == self.node.base_uri:
                continue
            try:
                om = self.peer(f"{base_uri}/om")
                avg, samples = om.class_stats(class_name)
            except Exception:  # noqa: BLE001 - best-effort exchange
                self._errors("class_stats")
                continue
            self.grain.merge_remote_stats(class_name, avg, samples)
        self._merge_peer_method_summaries()

    def _merge_peer_method_summaries(self) -> None:
        """Merge the peers' histogram summaries into the grain autotuner.

        Rows carry each node's ``parc.method.seconds.*``
        summaries keyed by span name (``Short.method``); translated back
        to wire class names through the parallel-class table they become
        per-(class, method) evidence for :meth:`decide_method`, so a
        node tunes a method it has never executed locally.
        """
        reports = self._current_reports()
        directory = self._directory_snapshot()
        short_to_wire = {
            name.rsplit(".", 1)[-1]: name
            for name in parallel_class_table.names()
        }
        for index, report in enumerate(reports):
            if report is None or index >= len(directory):
                continue
            if directory[index] == self.node.base_uri:
                continue  # local executions are observed directly
            methods = report.get("methods")
            if not methods:
                continue
            for span, summary in methods.items():
                short, _, method = str(span).rpartition(".")
                wire_name = short_to_wire.get(short)
                if wire_name is None or not method:
                    continue
                try:
                    avg_s, count = float(summary[0]), int(summary[1])
                except (TypeError, ValueError, IndexError):
                    self._errors("peer_methods")
                    continue
                self.grain.merge_remote_method_stats(
                    wire_name, method, avg_s, count
                )


class NodeFactory(MarshalByRefObject):
    """The per-node RemoteFactory of Fig. 6: instantiates IOs on request."""

    def __init__(self, node: "Node") -> None:
        self.node = node

    def create(self, class_name: str, args: tuple = (), kwargs: dict | None = None):
        """Instantiate *class_name* here; returns the IO (by reference).

        The implementation object travels back as an ObjRef and the
        calling PO receives a transparent proxy — or, when the caller is
        on this very node, the live object itself (intra-grain shortcut,
        Fig. 3 call b).
        """
        return self.node.create_impl(class_name, tuple(args), dict(kwargs or {}))

    def impl_count(self) -> int:
        return self.node.io_count()


class Node:
    """One processing node: remoting host + OM + factory + hosted IOs."""

    def __init__(
        self,
        index: int,
        channel: Channel,
        authority: str,
        services: ChannelServices,
        grain: GrainPolicy | AdaptiveGrainController,
        placement: PlacementPolicy,
        settings: NodeSettings,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.index = index
        self.services = services
        self.settings = settings
        self._errors = ErrorCounter(metrics)
        # The node's hosted IOs run on a pool of its own, capped by cores
        # as the machine it stands for would be: in-process nodes share
        # the CPU but not each other's threads.
        self.executor = Executor()
        self.host = RemotingHost(name=f"parc-node-{index}", services=services)
        binding = self.host.listen(channel, authority)
        self.formatter = channel.formatter  # copies home-created IOs' args
        self.base_uri = f"{channel.scheme}://{binding.authority}"
        # Per-node observability state, published like om/factory so any
        # peer (or the runtime's collector) can pull it over the wire.
        self.telemetry = NodeTelemetry(
            label=self.base_uri, config=settings.telemetry
        )
        self.host.telemetry = self.telemetry
        self.om = ObjectManager(self, grain, placement, metrics=metrics)
        self.factory = NodeFactory(self)
        self.sched = NodeScheduler(self)
        self.host.publish(self.om, "om")
        self.host.publish(self.factory, "factory")
        self.host.publish(self.telemetry, "telemetry")
        self.host.publish(self.sched, "sched")
        self._lock = threading.Lock()
        self._impls: list[ImplementationObject] = []
        self._created_total = 0
        # Work done by IOs that have since left (released or migrated).
        self._retired_processed = 0
        self._retired_shed = 0
        self._retired_async_failures = 0
        self._closed = False

    # -- IO hosting -----------------------------------------------------------

    def create_impl(
        self, class_name: str, args: tuple, kwargs: dict
    ) -> ImplementationObject:
        info = parallel_class_table.by_name(class_name)
        instance = info.cls(*args, **kwargs)
        impl = self.build_impl(instance, class_name)
        with self._lock:
            if self._closed:
                impl.dispose()
                raise ScooppError(f"node {self.index} is closed")
            self._impls.append(impl)
            self._created_total += 1
        return impl

    def build_impl(
        self, instance: Any, class_name: str
    ) -> ImplementationObject:
        """Wrap an existing instance with this node's flow-control knobs."""
        return ImplementationObject(
            instance,
            class_name,
            on_execution=self._on_execution,
            node=self,
            mailbox_depth=self.settings.mailbox_depth,
        )

    def _on_execution(
        self, class_name: str, elapsed_s: float, method: str
    ) -> None:
        if isinstance(self.om.grain, AdaptiveGrainController):
            self.om.grain.observe_execution(
                class_name, elapsed_s, method=method
            )

    def adopt_impl(self, impl: ImplementationObject) -> None:
        """Take ownership of an externally built IO (grain promotion)."""
        with self._lock:
            if self._closed:
                raise ScooppError(f"node {self.index} is closed")
            self._impls.append(impl)
            self._created_total += 1

    def note_io_created(self) -> None:
        with self._lock:
            self._created_total += 1

    def io_count(self) -> int:
        with self._lock:
            return len(self._impls)

    def impl_snapshot(self) -> list[ImplementationObject]:
        with self._lock:
            return list(self._impls)

    def impl_by_path(self, path: str) -> ImplementationObject | None:
        """The hosted IO published at *path*, if any.

        Every factory-created grain is implicitly published when its
        reference crosses the wire, so the path doubles as the grain's
        stable migration address.
        """
        with self._lock:
            for impl in self._impls:
                if getattr(impl, "_parc_path", None) == path:
                    return impl
        return None

    def remove_impl(self, impl: ImplementationObject) -> None:
        """Unlist an IO that migrated away (it stays published as a
        forwarder) or was released; its work stays in the node totals."""
        with self._lock:
            try:
                self._impls.remove(impl)
            except ValueError:
                return
        # The node's work totals are cumulative: keep what the departing
        # IO did (``created_total`` likewise never shrinks).
        stats = impl.stats()
        with self._lock:
            self._retired_processed += stats["processed"]
            self._retired_shed += stats["shed"]
            self._retired_async_failures += stats["async_failures"]

    def release_impl(self, impl: ImplementationObject) -> None:
        """A disposed IO leaves the node: unlisted and unpublished."""
        self.remove_impl(impl)
        path = getattr(impl, "_parc_path", None)
        if path is not None and impl._parc_home is self.host:
            self.host.unpublish(path)

    def make_proxy(self, uri: str) -> RemoteProxy:
        return self.host.get_object(uri)

    def report(self) -> dict:
        """This node's row: the one answer to "how loaded is node X?".

        Published at ``/om`` (:meth:`ObjectManager.report`) and read by
        placement, the control plane's detector / elastic / rebalance
        duties, ``runtime.stats()`` and ``placement_report()``.
        ``load`` is live IOs plus queued and executing calls; ``queued``
        counts every queued call, all of which a migration may move
        (``grains`` lists the deepest per-grain backlogs);
        ``processed``/``shed``/``created_total`` are cumulative.
        ``avg_service_s``/``p99_s``/``methods`` summarize the
        ``parc.method.seconds.*`` histograms (0.0 / empty with telemetry
        off) and price backlog in measured seconds.
        """
        with self._lock:
            impls = list(self._impls)
            processed = self._retired_processed
            shed = self._retired_shed
            failures = self._retired_async_failures
            created_total = self._created_total
        load = float(len(impls))
        queued = 0
        grains = []
        for impl in impls:
            stats = impl.stats()
            processed += stats["processed"]
            shed += stats["shed"]
            failures += stats["async_failures"]
            load += impl.queue_length
            backlog = stats["queued"]
            queued += backlog
            path = getattr(impl, "_parc_path", None)
            if backlog and path is not None:  # unpublished = unreachable
                grains.append(
                    {
                        "path": path,
                        "class_name": impl.class_name,
                        "backlog": backlog,
                    }
                )
        grains.sort(key=lambda g: g["backlog"], reverse=True)
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge(
                "flow.mailbox.depth", "queued calls across hosted mailboxes"
            ).set(float(queued))
        summaries = summarize_method_histograms(
            self.telemetry.metrics.export()
        )
        calls = sum(s["count"] for s in summaries.values())
        return {
            "index": self.index,
            "base_uri": self.base_uri,
            "load": load,
            "ios": len(impls),
            "created_total": created_total,
            "queued": queued,
            "processed": processed,
            "shed": shed,
            "async_failures": failures + self.host.one_way_failure_count,
            "avg_service_s": (
                sum(s["avg_s"] * s["count"] for s in summaries.values())
                / calls
                if calls
                else 0.0
            ),
            "p99_s": max(
                (s["p99_s"] for s in summaries.values()), default=0.0
            ),
            "methods": {
                span: [s["avg_s"], int(s["count"])]
                for span, s in summaries.items()
            },
            "grains": grains[:REPORT_TOP_GRAINS],
            **self.sched._counters(),
        }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            impls, self._impls = self._impls, []
        for impl in impls:
            try:
                impl.dispose()
            except Exception:  # noqa: BLE001 - teardown must finish
                self._errors("teardown")
        self.host.close()
