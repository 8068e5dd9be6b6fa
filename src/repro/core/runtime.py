"""The runtime system entry points: init, shutdown, grain creation.

Typical use (the paper's programming model, in Python)::

    import repro.core as parc

    @parc.parallel
    class PrimeServer:
        def process(self, nums):          # async (no return value)
            ...
        def count(self):                  # sync (returns a value)
            return ...

    parc.init(parc.ParcConfig(nodes=4))
    try:
        server = parc.new(PrimeServer)    # PO; IO placed by the OM
        server.process([2, 3, 5])         # asynchronous, may be aggregated
        total = server.count()            # synchronous, flushes first
    finally:
        parc.shutdown()

``parc.new(Cls, ...)`` and instantiating a generated PO class are
equivalent; the preprocessor route produces modules where the original
class *name* already denotes the PO (paper §3.2: "the original parallel
object classes are replaced by generated PO classes").
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import threading
import weakref
from typing import Any, Iterator

from repro.core.config import ParcConfig
from repro.core.depgraph import MAIN, DependenceTracker
from repro.core.grain import AdaptiveGrainController, GrainPolicy
from repro.core.impl import ImplementationObject, current_node
from repro.core.model import ParallelClassInfo, parallel_class_table
from repro.core.proxy_object import (
    LocalGrain,
    ProxyObject,
    RemoteGrain,
    make_parallel_class,
)
from repro.errors import NodeLostError, NotRunningError, ScooppError
from repro.executor import executor
from repro.remoting.objref import ObjRef, current_host

# NOTE: repro.cluster modules import repro.core (grain, impl, model), so
# the cluster itself is imported lazily inside the functions that need it
# — a module-level import here would be circular when a worker process's
# first import is a repro.cluster module.

logger = logging.getLogger("repro.core")

#: ``metrics_snapshot()``'s executor row: (stats field, type, help).
_EXECUTOR_ROW = (
    ("cap", "gauge", "runnable executor threads allowed"),
    ("threads", "gauge", "executor threads alive"),
    ("idle", "gauge", "executor threads waiting for a run"),
    ("waiting", "gauge", "runs waiting for an executor thread"),
    ("blocked", "gauge", "executor threads inside managed blocking"),
    (
        "starvation_starts",
        "counter",
        "executor threads the starvation check started",
    ),
)

if False:  # pragma: no cover - static typing aid only
    from repro.cluster.cluster import Cluster  # noqa: F401
    from repro.cluster.node import Node  # noqa: F401


class ParcRuntime:
    """One live SCOOPP runtime over a cluster."""

    def __init__(self, cluster) -> None:  # type: ignore[no-untyped-def]
        self.cluster = cluster
        self.dependence = DependenceTracker()
        self._lock = threading.Lock()
        self._closed = False
        # Self-healing: live remote grains (weak, so released POs drop
        # out) plus a lock serializing respawn decisions.  The runtime
        # subscribes to every in-process node's failure detector; a
        # node-down verdict — proactive (heartbeat) or reactive (a failed
        # call) — funnels into _handle_node_down.
        self._grains: "weakref.WeakSet[RemoteGrain]" = weakref.WeakSet()
        self._respawn_lock = threading.Lock()
        self._quiesce_errors = 0  # parc.errors.quiesce
        for node in getattr(cluster, "nodes", []):
            node.om.on_node_down(self._handle_node_down)
        # Live migration: when the scheduler moves a grain, repoint the
        # tracking POs at its new home so follow-up calls skip the
        # victim's forwarding shell.
        on_migration = getattr(cluster, "on_migration", None)
        if on_migration is not None:
            on_migration(self._handle_migration)

    # -- grain creation ----------------------------------------------------

    def _creating_node(self):  # type: ignore[no-untyped-def]
        from repro.cluster.node import Node

        node = current_node.get()
        if node is not None and isinstance(node, Node):
            return node
        return self.cluster.home_node

    @staticmethod
    def _creator_label() -> str:
        node = current_node.get()
        if node is None:
            return MAIN
        impl = _executing_impl.get()
        if impl is None:
            return MAIN
        return _impl_label(impl)

    #: Placement attempts before giving up on creating an IO (a failed
    #: attempt marks the target node dead and re-places elsewhere).
    CREATE_ATTEMPTS = 3

    def create_grain(
        self, info: ParallelClassInfo, args: tuple, kwargs: dict
    ) -> Any:
        """Fig. 5's generated constructor body: decide, place, create.

        Node failures are absorbed: if the chosen node is unreachable it
        is recorded dead with the object manager and placement retries on
        the remaining nodes (up to :data:`CREATE_ATTEMPTS` times).
        """
        from repro.errors import (
            ChannelError,
            RemoteInvocationError,
            RemotingError,
        )

        self._ensure_open()
        node = self._creating_node()
        creator = self._creator_label()
        last_error: Exception | None = None
        for _attempt in range(self.CREATE_ATTEMPTS):
            decision, factory_uri = node.om.decide_and_place(info.wire_name)
            if factory_uri is None:
                # Object agglomeration: intra-grain creation (Fig. 3 call d).
                instance = info.cls(*args, **kwargs)
                grain = LocalGrain(instance, info.wire_name)
                self._record_creation(
                    creator, grain, f"local:{grain.grain_id}"
                )
                return grain
            factory = node.make_proxy(factory_uri)
            token = current_host.set(node.host)
            try:
                impl = factory.create(
                    info.wire_name, tuple(args), dict(kwargs)
                )
            except RemoteInvocationError:
                # The node answered: this is an application failure (for
                # example the user constructor raised), not a dead node.
                raise
            except (ChannelError, RemotingError) as exc:
                last_error = exc
                base_uri = factory_uri.rsplit("/", 1)[0]
                node.om.note_dead(base_uri)
                continue
            finally:
                current_host.reset(token)
            grain = RemoteGrain(impl, max_calls=decision.max_calls)
            self.adopt_grain(
                grain,
                spec=(info, tuple(args), dict(kwargs)),
                restartable=info.restartable,
            )
            self._record_creation(creator, grain, _grain_label(grain))
            return grain
        raise ScooppError(
            f"could not place {info.wire_name} after "
            f"{self.CREATE_ATTEMPTS} attempts: {last_error}"
        ) from last_error

    def _record_creation(self, creator: str, grain: Any, label: str) -> None:
        """Add *grain* to the dependence graph until it is released."""
        self.dependence.record_creation(creator, label)
        grain.on_release = functools.partial(self.dependence.forget, label)

    # -- self-healing: respawn and loss ------------------------------------

    def adopt_grain(
        self,
        grain: RemoteGrain,
        spec: tuple | None = None,
        restartable: bool = False,
        info: ParallelClassInfo | None = None,
    ) -> None:
        """Track *grain* for crash recovery and give it the recoverer.

        Grains without a creation *spec* (e.g. rebuilt from a PO
        reference that crossed the wire) cannot be respawned — only the
        creating runtime knows the constructor arguments — so they are
        marked lost instead when their node dies.

        When the grain's class is known (*spec* or *info*) aggregates go
        columnar (the user class supplies method signatures for column
        planning) and, under an adaptive grain controller, the
        bytes-per-call feedback loop is wired up.
        """
        grain.spec = spec
        grain.restartable = restartable and spec is not None
        grain.recoverer = self.recover_grain
        if info is None and spec is not None:
            info = spec[0]
        if info is not None:
            grain.impl_class = info.cls
            grain.columnar = True
            controller = getattr(self.cluster, "grain", None)
            if isinstance(controller, AdaptiveGrainController):
                class_name = info.wire_name

                def _observe(nbytes: int, calls: int) -> None:
                    controller.observe_call_bytes(class_name, nbytes, calls)

                grain.wire_observer = _observe
                # Online per-method retuning: the proxy consults the
                # controller's decide_method() between flushes, fed by
                # the parc.method.seconds.* histograms the nodes merge
                # cluster-wide.  Gated by SchedulerConfig.autotune.
                sched_cfg = getattr(self.cluster, "sched_config", None)
                if getattr(sched_cfg, "autotune", True):
                    grain.tuner = controller
                    grain.tuner_class = class_name
        self._grains.add(grain)

    def recover_grain(self, grain: RemoteGrain, cause: BaseException) -> bool:
        """Reactive failure detection: a call on *grain* hit a transport
        error.  Confirm the hosting node is actually dead (one probe
        round — a transient or chaos-injected fault must not trigger a
        state-losing respawn), then respawn or mark lost.  Returns True
        when the grain was rebound and the call is worth retrying.
        """
        authority = grain.home_authority()
        if authority is None:
            return False
        om = self.cluster.home_node.om
        base_uri = next(
            (
                uri
                for uri in om.directory()
                if uri.split("://", 1)[-1] == authority
            ),
            None,
        )
        if base_uri is None:
            return False
        om.probe_peers()
        if base_uri not in om.dead_nodes():
            return False  # the node answered: transient failure, surface it
        return self._respawn_or_lose(grain, authority, raise_lost=True)

    def _handle_node_down(self, base_uri: str) -> None:
        """Proactive path: a failure detector declared *base_uri* dead."""
        authority = base_uri.split("://", 1)[-1]
        for grain in list(self._grains):
            if grain.home_authority() == authority:
                try:
                    self._respawn_or_lose(grain, authority, raise_lost=False)
                except ScooppError:
                    # Respawn placement failed (e.g. the cluster is going
                    # down); the grain stays pointed at the dead node and
                    # the next call surfaces the error.
                    pass

    def _respawn_or_lose(
        self, grain: RemoteGrain, dead_authority: str, raise_lost: bool
    ) -> bool:
        with self._respawn_lock:
            if grain.home_authority() != dead_authority:
                return True  # another detector already rebound it
            info = grain.spec[0] if grain.spec else None
            if not grain.restartable or grain.spec is None:
                class_name = info.wire_name if info else "a grain"
                error = NodeLostError(
                    f"node {dead_authority} hosting {class_name} died and "
                    f"the class is not restartable; declare "
                    f"@parallel(restartable=True) to opt into respawn"
                )
                grain.mark_lost(error)
                self._count("cluster.grain_lost")
                if raise_lost:
                    raise error
                return False
            info, args, kwargs = grain.spec
            impl = self._place_remote_impl(info, args, kwargs)
            grain.rebind(impl)
            self._count("cluster.grain_respawned")
            return True

    def _handle_migration(self, result: dict) -> None:
        """The scheduler moved a grain: repoint its tracking PO(s).

        Matching is by the victim's published URIs.  Best-effort on
        purpose — the forwarding shell left on the victim keeps
        un-repointed proxies working, so a failure here costs one extra
        hop, never a lost call.
        """
        old_uris = set(result.get("old_uris") or ())
        new_uris = tuple(result.get("new_uris") or ())
        if not old_uris or not new_uris:
            return
        new_ref = ObjRef(
            uris=new_uris,
            type_hint=result.get("class_name", ""),
            host_id=result.get("host_id") or "",
        )
        target: Any = None
        for grain in list(self._grains):
            ref = getattr(grain.impl, "_parc_objref", None)
            if ref is None or not old_uris.intersection(ref.uris):
                continue
            if target is None:
                host = self.cluster.home_node.host
                target = host.resolve_local(new_ref)
                if target is None:
                    target = host.make_proxy(new_ref)
            grain.repoint(target)
            self._count("cluster.grain_repointed")

    def _place_remote_impl(
        self, info: ParallelClassInfo, args: tuple, kwargs: dict
    ) -> Any:
        """Create a fresh IO for *info* on a live node (never agglomerates)."""
        from repro.errors import (
            ChannelError,
            RemoteInvocationError,
            RemotingError,
        )

        self._ensure_open()
        node = self._creating_node()
        last_error: Exception | None = None
        for _attempt in range(self.CREATE_ATTEMPTS):
            _decision, factory_uri = node.om.decide_and_place(info.wire_name)
            if factory_uri is None:
                # The grain policy said agglomerate, but a respawned IO
                # must stay remotely addressable: use the local factory.
                factory_uri = f"{node.base_uri}/factory"
            factory = node.make_proxy(factory_uri)
            token = current_host.set(node.host)
            try:
                return factory.create(info.wire_name, tuple(args), dict(kwargs))
            except RemoteInvocationError:
                raise
            except (ChannelError, RemotingError) as exc:
                last_error = exc
                node.om.note_dead(factory_uri.rsplit("/", 1)[0])
                continue
            finally:
                current_host.reset(token)
        raise ScooppError(
            f"could not respawn {info.wire_name} after "
            f"{self.CREATE_ATTEMPTS} attempts: {last_error}"
        ) from last_error

    def _count(self, name: str) -> None:
        metrics = getattr(self.cluster, "metrics", None)
        if metrics is not None:
            metrics.counter(name).inc()

    # -- reference support (PO passing, promotion) ------------------------

    def promote_grain(self, po: ProxyObject) -> RemoteGrain:
        """Convert a local (agglomerated) grain into a publishable one.

        Needed when a reference to an agglomerated PO is sent remotely:
        the instance is adopted by the creating node as a hosted IO and
        the PO switches to a remote grain in place.
        """
        grain = po._parc_grain
        if isinstance(grain, RemoteGrain):
            return grain
        node = self._creating_node()
        impl = ImplementationObject(
            grain.instance,
            grain.class_name,
            on_execution=node._on_execution,
            node=node,
        )
        node.adopt_impl(impl)
        node.host.objref_for(impl)  # publish now so the label is its path
        new_grain = RemoteGrain(impl, max_calls=1)
        self.adopt_grain(new_grain)
        new_grain.on_release = grain.on_release  # it keeps its graph node
        po._parc_grain = new_grain
        return new_grain

    def quiesce_outboxes(self) -> None:
        """Deliver every tracked grain's buffered/posted calls.

        Flushes each adopted grain's aggregation buffer and waits until
        its send runs have shipped everything (each call is in its IO's
        mailbox).  This covers POs held *inside* grain instances —
        decoded references are adopted too — so barriers like
        :meth:`repro.core.patterns.Pipeline.drain` can close the window
        where a forwarded call sits in an invisible outbox.  Best-effort:
        a grain that fails (mid-teardown, lost, a failed send) is
        skipped, counted as ``parc.errors.quiesce`` and logged once.
        """
        for grain in list(self._grains):
            sync = getattr(grain, "sync_outbox", None)
            if sync is None:
                continue
            try:
                sync()
            except Exception:  # noqa: BLE001 - barrier is best-effort
                self._quiesce_errors += 1
                if self._quiesce_errors == 1:
                    logger.exception(
                        "quiescing the outbox of grain %d failed",
                        grain.grain_id,
                    )

    def objref_for_impl(self, impl: ImplementationObject) -> ObjRef:
        from repro.cluster.node import Node

        node = impl.node if isinstance(impl.node, Node) else self.cluster.home_node
        return node.host.objref_for(impl)

    def proxy_for_objref(self, ref: ObjRef) -> Any:
        """Resolve an IO reference: local shortcut or transparent proxy."""
        host = current_host.get()
        if host is None:
            host = self.cluster.home_node.host
        local = host.resolve_local(ref)
        if local is not None:
            return local
        holder = self._creator_label()
        self.dependence.record_reference(holder, _path_of(ref))
        return host.make_proxy(ref)

    # -- observability ----------------------------------------------------

    def _collect_telemetry(self) -> dict[str, dict[str, Any]]:
        collect = getattr(self.cluster, "collect_telemetry", None)
        if collect is None:  # pragma: no cover - exotic cluster stand-ins
            return {}
        return collect()

    def dump_trace(self, path: str | None = None) -> dict:
        """Merge every node's trace buffer into one Chrome-trace document.

        Each node becomes its own process lane (``pid``); span parentage
        recorded by the distributed trace context survives the merge, so
        a call fanning out over the cluster reads as one connected tree
        in ``chrome://tracing`` / Perfetto.  When *path* is given the
        document is also written there as JSON.  Call this **before**
        :func:`shutdown` — collection reaches worker processes over the
        wire.
        """
        from repro.telemetry import merge_chrome_trace

        telemetry = self._collect_telemetry()
        node_events = {
            label: data["events"] for label, data in telemetry.items()
        }
        dropped = sum(
            int(data.get("dropped", 0)) for data in telemetry.values()
        )
        document = merge_chrome_trace(node_events, dropped_events=dropped)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
        return document

    def metrics_snapshot(self) -> dict[str, Any]:
        """Cluster-wide metrics: per-node exports plus one aggregate.

        Returns ``{"nodes": {label: export}, "cluster": merged}`` where
        each export is a :meth:`MetricsRegistry.export` document and
        ``merged`` folds every node's counters and histograms together
        with the cluster-shared registry (breaker/chaos counters).
        """
        from repro.telemetry import merge_exports

        telemetry = self._collect_telemetry()
        nodes = {
            label: data["metrics"] for label, data in telemetry.items()
        }
        exports = list(nodes.values())
        shared = getattr(self.cluster, "metrics", None)
        if shared is not None:
            exports.append(shared.export())
        merged = merge_exports(exports)
        # PO aggregation counters, summed over the grains this runtime
        # tracks: how many aggregate messages left versus unbatched
        # singles.
        grains = list(self._grains)
        merged["po.batches"] = {
            "type": "counter",
            "value": sum(g.batches for g in grains),
            "help": "aggregate (processN) messages shipped by live POs",
        }
        merged["po.singles"] = {
            "type": "counter",
            "value": sum(g.singles for g in grains),
            "help": "single-call messages shipped by live POs",
        }
        merged["po.sheds"] = {
            "type": "counter",
            "value": sum(getattr(g, "sheds", 0) for g in grains),
            "help": "PO calls refused with OverloadError (flow control)",
        }
        merged["parc.errors.wire_observer"] = {
            "type": "counter",
            "value": sum(getattr(g, "observer_errors", 0) for g in grains),
            "help": "PO wire-observer calls that raised",
        }
        merged["parc.errors.retune"] = {
            "type": "counter",
            "value": sum(getattr(g, "retune_errors", 0) for g in grains),
            "help": "PO autotuner consultations that raised",
        }
        merged["parc.errors.quiesce"] = {
            "type": "counter",
            "value": self._quiesce_errors,
            "help": "grains whose outbox a quiesce barrier skipped",
        }
        # The executor row: this process's pools (its own and one per
        # in-process node), read now and summed.
        pools = [executor().stats()] + [
            node.executor.stats() for node in self.cluster.nodes
        ]
        for field, kind, help_text in _EXECUTOR_ROW:
            merged[f"executor.{field}"] = {
                "type": kind,
                "value": sum(pool[field] for pool in pools),
                "help": help_text,
            }
        return {"nodes": nodes, "cluster": merged}

    def placement_report(self) -> dict:
        """Where grains live and what the adaptive scheduler did.

        Delegates to :meth:`repro.cluster.cluster.Cluster.placement_report`:
        the active policy, per-node grain counts and backlogs, the
        steal/migration counters, and the most recent placement
        decisions.
        """
        self._ensure_open()
        return self.cluster.placement_report()

    def migrate_grain(self, grain_uri: str, target_base_uri: str) -> dict:
        """Explicitly live-migrate a published grain (see Cluster)."""
        self._ensure_open()
        return self.cluster.migrate_grain(grain_uri, target_base_uri)

    # -- lifecycle -------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise NotRunningError("runtime has been shut down")

    def stats(self) -> list[dict]:
        return self.cluster.stats()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.cluster.close()


# -- labelling helpers --------------------------------------------------------

from repro.core.impl import executing_impl as _executing_impl


def _impl_label(impl: ImplementationObject) -> str:
    path = getattr(impl, "_parc_path", None)
    home = getattr(impl, "_parc_home", None)
    if path and home is not None:
        # Auto-generated paths repeat across hosts; qualify with the host.
        return f"{home.host_id}/{path}"
    return f"impl:{id(impl):x}"


def _grain_label(grain: RemoteGrain) -> str:
    from repro.remoting.proxy import RemoteProxy

    if isinstance(grain.impl, RemoteProxy):
        return _path_of(grain.impl._parc_objref)
    return _impl_label(grain.impl)


def _path_of(ref: ObjRef) -> str:
    from repro.channels.services import parse_uri

    return f"{ref.host_id}/{parse_uri(ref.uris[0]).path}"


# -- module-level runtime management -----------------------------------------

_runtime_lock = threading.Lock()
_runtime: ParcRuntime | None = None


def init(config: ParcConfig | None = None) -> ParcRuntime:
    """Boot the runtime from a :class:`ParcConfig` (defaults if omitted)::

        parc.init(ParcConfig(nodes=4, channel="tcp"))

    ``config.channel`` is ``"loopback"`` (in-process, deterministic),
    ``"tcp"`` (real sockets), ``"aio"`` (multiplexed asyncio sockets),
    ``"shm"``, or a ``"chaos+*"`` variant routing every call through the
    fault-injection layer.  Grain and placement policy come from
    ``config.scheduler`` (:class:`~repro.sched.SchedulerConfig`): the
    default is no adaptation (:class:`GrainPolicy` with ``max_calls=1``)
    and round-robin placement.  See :class:`ParcConfig` for the rest.
    """
    global _runtime
    if config is None:
        config = ParcConfig()
    elif not isinstance(config, ParcConfig):
        raise TypeError(
            f"init() takes a ParcConfig, got {type(config).__qualname__}"
        )
    with _runtime_lock:
        if _runtime is not None and not _runtime._closed:
            raise ScooppError("runtime already initialized; call shutdown()")
        from repro.cluster.cluster import Cluster

        cluster = Cluster(config)
        _runtime = ParcRuntime(cluster)
        return _runtime


@contextlib.contextmanager
def session(config: ParcConfig | None = None) -> Iterator[ParcRuntime]:
    """Run a block under a booted runtime, guaranteeing shutdown::

        with parc.session(ParcConfig(nodes=4, channel="tcp")) as runtime:
            server = parc.new(PrimeServer)
            ...
        # runtime is shut down here, even on error

    Accepts exactly what :func:`init` accepts.
    """
    runtime = init(config)
    try:
        yield runtime
    finally:
        shutdown()


def current_runtime() -> ParcRuntime:
    """The live runtime; raises NotRunningError before init/after shutdown."""
    runtime = _runtime
    if runtime is None or runtime._closed:
        raise NotRunningError(
            "ParC runtime is not initialized; call repro.core.init() first"
        )
    return runtime


def shutdown() -> None:
    """Stop the runtime and release all nodes (idempotent)."""
    global _runtime
    with _runtime_lock:
        runtime, _runtime = _runtime, None
    if runtime is not None:
        runtime.close()


def new(cls: type, *args: Any, **kwargs: Any) -> Any:
    """Create a parallel object: returns a PO for ``@parallel`` class *cls*.

    Equivalent to instantiating the generated PO class; the IO is created
    where the object manager places it (or locally under agglomeration).
    """
    parallel_class_table.by_class(cls)  # clear error if not @parallel
    po_class = make_parallel_class(cls)
    return po_class(*args, **kwargs)
