"""A failure that is caught and dropped must at least be counted.

Pins, per source file, how many ``except`` handlers do nothing but
``pass`` / ``continue`` / ``break``.  A new bare swallow fails here; an
existing one that starts counting or logging lowers its file's number
(update the table — it only ever goes down).  ``cluster/`` is at zero:
its best-effort sites go through
:class:`repro.cluster.control.ErrorCounter`.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SILENT = (ast.Pass, ast.Continue, ast.Break)

EXPECTED = {
    "aio/channel.py": 13,
    "apps/jgf/crypt.py": 1,
    "apps/jgf/montecarlo.py": 1,
    "apps/jgf/series.py": 1,
    "apps/jgf/sor.py": 1,
    "apps/jgf/sparsematmult.py": 1,
    "apps/primes/farm.py": 1,
    "apps/raytracer/parallel.py": 1,
    "channels/http.py": 1,
    "channels/tcp.py": 3,
    "core/naming.py": 1,
    "core/patterns.py": 2,
    "core/runtime.py": 1,
    "nio/channels.py": 2,
    "shm/channel.py": 11,
    "shm/doorbell.py": 3,
}


def silent_handlers(source: str) -> int:
    return sum(
        isinstance(node, ast.ExceptHandler)
        and all(isinstance(stmt, SILENT) for stmt in node.body)
        for node in ast.walk(ast.parse(source))
    )


def test_no_new_silent_except_handler():
    root = pathlib.Path(repro.__file__).parent
    found = {}
    for path in sorted(root.rglob("*.py")):
        count = silent_handlers(path.read_text(encoding="utf-8"))
        if count:
            found[path.relative_to(root).as_posix()] = count
    assert found == EXPECTED


def test_the_census_sees_a_swallow():
    assert silent_handlers("try:\n    x()\nexcept Exception:\n    pass\n") == 1
    assert silent_handlers("try:\n    x()\nexcept OSError:\n    log()\n") == 0
