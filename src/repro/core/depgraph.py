"""Application dependence graph (§3.1).

"References to parallel objects may be copied or sent as a method
argument, which may lead to cycles in a dependence graph.  The
application's dependence graph becomes a DAG when this feature is not
used."  The tracker records two edge kinds:

* **creation** — creator grain → created grain (always acyclic on its own);
* **reference** — holder grain → referenced grain, added when a PO
  reference is passed through a remote call.

Nodes are implementation-object labels (their published paths, or
``local:<id>`` for agglomerated grains; ``main`` is the application entry
thread).  The graph holds live grains only: releasing a grain
(:meth:`DependenceTracker.forget`) drops its node and every edge
touching it.  :meth:`DependenceTracker.is_dag` answers the paper's
question directly; cycles are reported for diagnostics.

The graph is a dict of successor dicts (edge → kind) with a predecessor
index, so forgetting a grain costs its own edges, not the graph's size.
Both searches are iterative, so a creation chain of any depth is safe.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

MAIN = "main"

# Depth-first colours: unseen nodes have none.
_ON_PATH, _DONE = 1, 2


class DependenceTracker:
    """Thread-safe dependence graph over grain labels."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._succ: dict[str, dict[str, str]] = {MAIN: {}}
        self._pred: dict[str, set[str]] = {MAIN: set()}

    def _add_edge(self, source: str, dest: str, kind: str) -> None:
        with self._lock:
            self._succ.setdefault(source, {})[dest] = kind
            self._succ.setdefault(dest, {})
            self._pred.setdefault(source, set())
            self._pred.setdefault(dest, set()).add(source)

    def record_creation(self, parent: str, child: str) -> None:
        self._add_edge(parent, child, "creation")

    def record_reference(self, holder: str, referenced: str) -> None:
        # A self-reference is legal and always a cycle; it is recorded so
        # that is_dag reports the truth.
        self._add_edge(holder, referenced, "reference")

    def forget(self, label: str) -> None:
        """Drop a released grain: its node and every edge touching it."""
        if label == MAIN:
            return
        with self._lock:
            successors = self._succ.pop(label, None)
            if successors is None:
                return
            for source in self._pred.pop(label):
                if source != label:
                    del self._succ[source][label]
            for dest in successors:
                if dest != label:
                    self._pred[dest].discard(label)

    def is_dag(self) -> bool:
        with self._lock:
            return next(self._back_edges(), None) is None

    def cycles(self) -> list[list[str]]:
        """One elementary cycle per back edge the depth-first search finds.

        Every cyclic graph has at least one back edge, so the list is
        empty exactly when :meth:`is_dag` is true.  It is a witness per
        back edge, not the set of all elementary cycles.
        """
        with self._lock:
            return [
                path[path.index(dest):] for path, dest in self._back_edges()
            ]

    def _back_edges(self) -> Iterator[tuple[list[str], str]]:
        """Yield ``(path, dest)`` for each back edge ``path[-1] → dest``,
        where *path* is the search's current root-to-node path (so *dest*
        is on it).  Callers hold the lock."""
        colour: dict[str, int] = {}
        for root in self._succ:
            if root in colour:
                continue
            colour[root] = _ON_PATH
            path = [root]
            stack = [iter(self._succ[root])]
            while stack:
                dest = next(stack[-1], None)
                if dest is None:
                    colour[path.pop()] = _DONE
                    stack.pop()
                    continue
                seen = colour.get(dest)
                if seen is None:
                    colour[dest] = _ON_PATH
                    path.append(dest)
                    stack.append(iter(self._succ[dest]))
                elif seen == _ON_PATH:
                    yield path, dest

    def edges(self, kind: str | None = None) -> list[tuple[str, str]]:
        with self._lock:
            return [
                (source, dest)
                for source, successors in self._succ.items()
                for dest, edge_kind in successors.items()
                if kind is None or edge_kind == kind
            ]

    def nodes(self) -> Iterable[str]:
        with self._lock:
            return list(self._succ)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(successors) for successors in self._succ.values())
