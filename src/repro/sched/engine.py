"""NodeScheduler: the per-node migration engine, published at ``/sched``.

Each node publishes one :class:`NodeScheduler` next to its ``/om`` and
``/factory`` objects.  The cluster calls ``migrate_out()`` to execute
planned (or explicit) moves; ``adopt()`` is the receiving half, invoked
victim→target over the ordinary remoting channel.  Its counters ride in
the node's row (:meth:`repro.cluster.node.Node.report`).

The migration protocol (zero lost calls):

1. ``begin_migration`` pauses the grain's mailbox: new admissions park,
   the batch executing right now finishes on the victim (executing work
   is never stolen), and every queued entry is extracted in drain order.
2. The instance's state — now stable — is serialized with the
   registry's ``state_of`` (the same ``__getstate__``-shaped dict the
   formatters ship for passive classes) and sent to the target's
   ``adopt()``, which rebuilds the instance via ``restore_state``,
   wraps it in a fresh ImplementationObject and returns it by
   reference.
3. The extracted backlog is replayed to the new IO in order —
   each asynchronous aggregate as the entry it arrived as, synchronous
   calls relayed inline so parked local waiters get their results.
4. ``complete_migration`` flips the old IO into a forwarding shell:
   parked and straggler callers are relayed to the new home, so even
   proxies that never hear about the move keep working.  On any
   failure, ``abort_migration`` requeues the backlog and the grain
   stays put.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.core.impl import ImplementationObject, _Aggregate, _Entry
from repro.core.model import parallel_class_table
from repro.errors import MigrationError
from repro.remoting import MarshalByRefObject
from repro.serialization.registry import default_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node


class NodeScheduler(MarshalByRefObject):
    """Live grain migration for one node."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self._lock = threading.Lock()
        self._migrations_out = 0
        self._migrations_in = 0
        self._migration_failures = 0
        self._calls_moved = 0
        self._steals = 0

    # -- remote surface ----------------------------------------------------

    def adopt(self, class_name: str, state: dict) -> ImplementationObject:
        """Receiving half of a migration: rebuild the grain here.

        The instance is reconstructed without running ``__init__`` (its
        state arrives whole from the victim, shaped exactly like the
        registry's ``__getstate__`` contract) and hosted in a fresh
        ImplementationObject with this node's flow-control knobs.  The
        IO travels back by reference, so the victim gets a proxy to
        replay the backlog into.
        """
        info = parallel_class_table.by_name(class_name)
        instance = info.cls.__new__(info.cls)
        default_registry.restore_state(instance, dict(state))
        impl = self.node.build_impl(instance, class_name)
        self.node.adopt_impl(impl)
        with self._lock:
            self._migrations_in += 1
        return impl

    def migrate_out(
        self, path: str, target_base_uri: str, kind: str = "migration"
    ) -> dict:
        """Move the grain published at *path* to *target_base_uri*.

        Returns a result dict with the old and new ObjRef URIs (the
        cluster relays it to runtimes so POs can repoint).  Raises
        :class:`MigrationError` and leaves the grain serving in place if
        anything fails after the pause.
        """
        impl = self.node.impl_by_path(path)
        if impl is None:
            raise MigrationError(
                f"no grain published at {path!r} on {self.node.base_uri}"
            )
        if target_base_uri == self.node.base_uri:
            raise MigrationError("migration target is the grain's own node")
        entries = impl.begin_migration()
        # Up to a successful adopt() the move is abortable: nothing has
        # executed elsewhere, so requeueing the backlog restores the
        # grain exactly.  After adopt() the state lives on the target
        # and the move is committed — replay is best-effort (per-chunk
        # retries inside _replay) and the shell always flips forward,
        # because reverting would fork the instance's state.
        try:
            state = default_registry.state_of(impl.instance)
            target = self.node.make_proxy(f"{target_base_uri}/sched")
            new_impl = target.adopt(impl.class_name, state)
        except BaseException as exc:
            impl.abort_migration(entries)
            with self._lock:
                self._migration_failures += 1
            raise MigrationError(
                f"migration of {impl.class_name} ({path}) to "
                f"{target_base_uri} failed: {exc}"
            ) from exc
        try:
            moved, lost = self._replay(entries, new_impl)
        finally:
            impl.complete_migration(new_impl)
            self.node.remove_impl(impl)
        if lost:
            with self._lock:
                self._migration_failures += 1
        old_ref = self.node.host.objref_for(impl)
        new_ref = self._ref_of(new_impl)
        with self._lock:
            self._migrations_out += 1
            self._calls_moved += moved
            if kind == "steal":
                self._steals += 1
        telemetry = self.node.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.metrics.counter(
                "sched.migrations", "grains migrated off this node"
            ).inc()
            telemetry.metrics.counter(
                "sched.calls_moved", "queued calls moved with migrations"
            ).inc(moved)
            telemetry.tracer.instant(
                "sched",
                f"sched.{kind}",
                class_name=impl.class_name,
                path=path,
                target=target_base_uri,
                moved_calls=moved,
            )
        return {
            "class_name": impl.class_name,
            "path": path,
            "kind": kind,
            "victim": self.node.base_uri,
            "target": target_base_uri,
            "moved_calls": moved,
            "lost_calls": lost,
            "old_uris": list(old_ref.uris),
            "new_uris": list(new_ref.uris) if new_ref is not None else [],
            "host_id": new_ref.host_id if new_ref is not None else None,
        }

    # -- internals ---------------------------------------------------------

    def _counters(self) -> dict:
        """Migration counters for the node's row (underscored: ``/sched``
        exposes ``adopt`` and ``migrate_out`` only)."""
        with self._lock:
            return {
                "migrations_out": self._migrations_out,
                "migrations_in": self._migrations_in,
                "migration_failures": self._migration_failures,
                "calls_moved": self._calls_moved,
                "steals": self._steals,
            }

    @staticmethod
    def _ref_of(new_impl: Any):  # type: ignore[no-untyped-def]
        """ObjRef of the adopted IO — proxy or live local object."""
        ref = getattr(new_impl, "_parc_objref", None)
        if ref is not None:
            return ref
        home = getattr(new_impl, "_parc_home", None)
        if home is not None:
            return home.objref_for(new_impl)
        return None

    def _replay(
        self, entries: list[_Entry], new_impl: Any
    ) -> tuple[int, int]:
        """Replay the extracted backlog into the new IO, in order.

        Each asynchronous aggregate travels on as it arrived, one
        ``enqueue_batch`` entry per request (columns stay columns);
        synchronous tasks are relayed inline and their parked local
        waiters completed here (the wait event cannot cross the wire).
        Returns ``(moved, lost)``: an aggregate whose request still
        fails after one retry is dropped rather than deadlocking the
        committed move (lost > 0 marks the migration failed in the
        counters).  A request carries one entry, so a refused one
        admitted nothing and the retry cannot admit a call twice.
        """
        moved = 0
        lost = 0
        for entry in entries:
            if type(entry) is _Aggregate:
                moved += entry.count
                for attempt in (1, 2):
                    try:
                        new_impl.enqueue_batch([entry.wire()])
                        break
                    except Exception:  # noqa: BLE001 - retry once
                        if attempt == 2:
                            lost += entry.count
                continue
            for task in entry:
                moved += 1
                try:
                    task.result = new_impl.invoke(
                        task.method, task.args, task.kwargs
                    )
                except BaseException as exc:  # noqa: BLE001 - relay verbatim
                    task.error = exc
                task.done.set()
        return moved, lost
