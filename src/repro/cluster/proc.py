"""Multi-process nodes: the cluster as separate OS processes over TCP.

The paper's platform ran each node as its own process on its own machine;
the in-process clusters of :mod:`repro.cluster.cluster` are convenient but
GIL-bound.  This module spawns **real worker processes**, each booting a
full node (remoting host + object manager + factory) on an ephemeral TCP
port.  Everything crosses real sockets with real serialization; compute
runs truly in parallel.

Worker lifecycle: the parent starts ``_worker_main`` from a
``forkserver`` context.  The fork server is a single-threaded
interpreter, started once per parent, that has already imported the
runtime (:data:`PRELOAD_MODULES`) and the application modules the
parent has imported; each worker is a fork of it, so it begins with
those modules in memory and inherits no thread or lock of the parent.
Like a spawned child it re-imports the parent's ``__main__``.  The
worker then imports the application's modules (registering its
``@parallel`` and ``@serializable`` classes — the per-node "boot code"
of §3.2; a preloaded module is already there, one the server could not
import fails here with its own error), boots the node, reports its base
URI, receives the cluster directory, and serves until told to shut
down.

Grain policies travel as specs (the adaptive controller holds locks and
cannot be pickled); each process builds its own controller, and the
object managers exchange statistics over the wire as usual.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import sys
import threading
from dataclasses import dataclass, field
from multiprocessing import forkserver
from typing import Sequence

from repro.core.config import NodeSettings
from repro.core.grain import AdaptiveGrainController, GrainPolicy
from repro.errors import ScooppError

#: Seconds to wait for a worker to boot / shut down before escalating.
WORKER_BOOT_TIMEOUT_S = 30.0
WORKER_SHUTDOWN_TIMEOUT_S = 10.0

#: What ``_worker_main`` imports to boot a node.  The fork server
#: imports them once; importing them starts no thread, so the server
#: stays single-threaded and every fork of it is safe.
PRELOAD_MODULES = (
    "repro.cluster.node",
    "repro.channels",
    "repro.cluster.placement",
)

_server_start = threading.Lock()


def grain_to_spec(grain: GrainPolicy | AdaptiveGrainController) -> tuple[str, dict]:
    """Portable description of a grain policy (picklable)."""
    if isinstance(grain, GrainPolicy):
        return (
            "static",
            {"agglomerate": grain.agglomerate, "max_calls": grain.max_calls},
        )
    if isinstance(grain, AdaptiveGrainController):
        return (
            "adaptive",
            {
                "overhead_s": grain.overhead_s,
                "pack_factor": grain.pack_factor,
                "agglomerate_factor": grain.agglomerate_factor,
                "max_calls_cap": grain.max_calls_cap,
                "min_samples": grain.min_samples,
                "bootstrap_max_calls": grain.bootstrap_max_calls,
                "ewma_alpha": grain.ewma_alpha,
            },
        )
    raise ScooppError(f"unknown grain policy type {type(grain).__qualname__}")


def grain_from_spec(spec: tuple[str, dict]) -> GrainPolicy | AdaptiveGrainController:
    """Rebuild a grain policy from its spec (in the worker process)."""
    kind, params = spec
    if kind == "static":
        return GrainPolicy(**params)
    if kind == "adaptive":
        return AdaptiveGrainController(**params)
    raise ScooppError(f"unknown grain spec kind {kind!r}")


@dataclass
class WorkerConfig:
    """Everything a worker process needs to boot its node."""

    index: int
    modules: tuple[str, ...]
    grain_spec: tuple[str, dict]
    placement_name: str
    #: The per-node settings, passed verbatim to the worker's Node.
    settings: NodeSettings
    extra_sys_path: tuple[str, ...] = field(default_factory=tuple)
    #: The starting thread's CPU affinity: a spawned child inherited it,
    #: a fork of the fork server would have the server's instead.
    cpus: tuple[int, ...] = ()


def _worker_main(config: WorkerConfig, conn) -> None:  # type: ignore[no-untyped-def]
    """Entry point of one worker process (top-level: importable by name).

    *conn* is the worker's end of its duplex command pipe: it answers
    each command with one ``(status, payload)`` reply, and end of file —
    the parent closed its end, or exited — means shut down.
    """
    if config.cpus:
        os.sched_setaffinity(0, config.cpus)
    # Make the parent's application modules importable, then import them:
    # this is the node "boot code" that registers factories/classes (§3.2).
    for path in config.extra_sys_path:
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        for module_name in config.modules:
            importlib.import_module(module_name)

        from repro.channels import create as create_channel
        from repro.channels.services import ChannelServices
        from repro.cluster.node import Node
        from repro.cluster.placement import make_placement

        services = ChannelServices()
        services.register_channel(create_channel("tcp"))
        node = Node(
            index=config.index,
            channel=create_channel("tcp"),
            authority="127.0.0.1:0",
            services=services,
            grain=grain_from_spec(config.grain_spec),
            placement=make_placement(config.placement_name),
            settings=config.settings,
        )
    except BaseException as exc:  # noqa: BLE001 - boot failure report
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        return
    conn.send(("ok", node.base_uri))

    # Install a worker-side runtime so nested creations and PO-reference
    # decoding work inside this process.
    from repro.core import runtime as runtime_module
    from repro.core.runtime import ParcRuntime

    runtime_module._runtime = ParcRuntime(_WorkerCluster(node, services))

    while True:
        try:
            command = conn.recv()
        except EOFError:
            command = None  # the parent closed its end: not a failure
        if command is None:
            break
        if command[0] == "set_directory":
            node.om.set_directory(command[1])
            conn.send(("ok", "directory"))
        else:  # pragma: no cover - defensive
            conn.send(("error", f"unknown command {command[0]!r}"))
    node.close()
    services.close_all()


class _WorkerCluster:
    """Single-node cluster view installed inside a worker process."""

    def __init__(self, node, services) -> None:  # type: ignore[no-untyped-def]
        self.nodes = [node]
        self.services = services

    @property
    def home_node(self):  # type: ignore[no-untyped-def]
        return self.nodes[0]

    def node_by_uri(self, base_uri: str):  # type: ignore[no-untyped-def]
        node = self.nodes[0]
        return node if node.base_uri == base_uri else None

    def stats(self) -> list[dict]:
        return [self.nodes[0].report()]

    def collect_telemetry(self) -> dict:
        tel = self.nodes[0].telemetry
        return {
            tel.node_label(): {
                "events": tel.trace_events(),
                "metrics": tel.metrics_export(),
                "dropped": tel.dropped_events(),
            }
        }

    def close(self) -> None:
        return None  # lifecycle owned by _worker_main


class ProcessNodeHandle:
    """Parent-side handle to one worker node process."""

    def __init__(
        self,
        config: WorkerConfig,
        context: multiprocessing.context.BaseContext,
    ) -> None:
        self.index = config.index
        # One command round trip at a time: replies carry no
        # correlation, so interleaved callers would cross them.  A pipe,
        # unlike a multiprocessing queue, starts no feeder thread.
        self._round_trip = threading.Lock()
        self._conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main,
            args=(config, child_conn),
            name=f"parc-worker-{config.index}",
            daemon=True,
        )
        try:
            self.process.start()
        finally:
            child_conn.close()  # the worker holds the only other end
        status, payload = self._reply()
        if status != "ok":
            self.process.join(timeout=WORKER_SHUTDOWN_TIMEOUT_S)
            self._conn.close()
            raise ScooppError(f"worker {config.index} failed to boot: {payload}")
        self.base_uri: str = payload

    def _reply(self) -> tuple[str, str]:
        """The worker's next reply, or ``("error", why)`` if none comes."""
        if not self._conn.poll(WORKER_BOOT_TIMEOUT_S):
            self.process.terminate()
            return "error", f"no reply in {WORKER_BOOT_TIMEOUT_S:g}s"
        try:
            return self._conn.recv()
        except EOFError:
            return "error", "the worker exited"

    def set_directory(self, directory: Sequence[str]) -> None:
        with self._round_trip:
            self._conn.send(("set_directory", list(directory)))
            status, payload = self._reply()
        if status != "ok":  # pragma: no cover - defensive
            raise ScooppError(f"worker {self.index}: {payload}")

    def shutdown(self) -> None:
        # The worker reads end of file on its pipe as its shutdown command.
        self._conn.close()
        self.process.join(timeout=WORKER_SHUTDOWN_TIMEOUT_S)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=5.0)


def spawn_workers(
    count: int,
    first_index: int,
    modules: Sequence[str],
    grain: GrainPolicy | AdaptiveGrainController,
    placement_name: str,
    settings: NodeSettings,
) -> list[ProcessNodeHandle]:
    """Start *count* worker nodes; returns their handles (booted)."""
    sys_paths = tuple(path for path in sys.path if path)
    context = _fork_server_context(modules, sys_paths)
    spec = grain_to_spec(grain)
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = tuple(sorted(affinity(0))) if affinity is not None else ()
    handles: list[ProcessNodeHandle] = []
    try:
        for offset in range(count):
            config = WorkerConfig(
                index=first_index + offset,
                modules=tuple(modules),
                grain_spec=spec,
                placement_name=placement_name,
                settings=settings,
                extra_sys_path=sys_paths,
                cpus=cpus,
            )
            handles.append(ProcessNodeHandle(config, context))
    except Exception:
        for handle in handles:
            handle.shutdown()
        raise
    return handles


def _fork_server_context(
    modules: Sequence[str], sys_paths: tuple[str, ...]
) -> multiprocessing.context.BaseContext:
    """The ``forkserver`` context, its server running and preloaded.

    The first call starts the server; later calls, and later sessions,
    reuse it.  Besides :data:`PRELOAD_MODULES` it preloads the worker
    modules this process has already imported: those are known to
    import cleanly, whereas a preload that raises anything but
    ``ImportError`` would take the server down.  The others are
    imported by each worker at boot.
    """
    context = multiprocessing.get_context("forkserver")
    preload = [*PRELOAD_MODULES, *(m for m in modules if m in sys.modules)]
    with _server_start:
        context.set_forkserver_preload(preload)
        # The server must import the preload from this process's path.
        # Python 3.11's server ignores the path it is handed, so it gets
        # it through its environment for the moment of its start.
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(sys_paths)
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
    return context
