"""Integration tests: what a runtime process imports, and worker
processes forked from a preloaded server.

The runtime imports no third-party package: the dependence graph is
plain dicts, and the formatters import numpy only when an ndarray
arrives.  Worker processes are forks of a single-threaded fork server
that has the runtime imported already.  Checks that depend on what a
fresh interpreter has imported run in a subprocess of their own.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import repro.core as parc
from repro.cluster.proc import PRELOAD_MODULES
from repro.core import ParcConfig
from repro.errors import ScooppError

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: This module is the workers' boot code: it registers Probe.
THIS_MODULE = "tests.integration.test_lean_boot"


@parc.parallel(
    name="leanboot.Probe",
    async_methods=["post"],
    sync_methods=["posted", "echo", "pid", "numpy_loaded", "cpus"],
)
class Probe:
    def __init__(self):
        self.count = 0

    def post(self, value):
        self.count += value

    def posted(self):
        return self.count

    def echo(self, value):
        return value

    def pid(self):
        return os.getpid()

    def numpy_loaded(self):
        return "numpy" in sys.modules

    def cpus(self):
        return sorted(os.sched_getaffinity(0))


def on_worker(cls):
    """A grain of *cls* placed on a worker process, not in the driver."""
    driver = os.getpid()
    for _ in range(4):
        grain = parc.new(cls)
        if grain.pid() != driver:
            return grain
        grain.parc_release()
    raise AssertionError("no grain landed on a worker process")


def worker_config(workers: int, modules=(THIS_MODULE,)) -> ParcConfig:
    return ParcConfig(
        nodes=1, channel="tcp", worker_processes=workers, worker_modules=modules
    )


def run_python(code: str):
    """Run *code* in a fresh interpreter; returns its last line as JSON."""
    src = os.path.join(ROOT, "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((src, ROOT))),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestNoThirdPartyImport:
    def test_runtime_imports_neither_numpy_nor_networkx(self):
        loaded = run_python(
            "import json, sys\n"
            "import repro, repro.cluster.proc\n"
            "print(json.dumps([m for m in ('numpy', 'networkx')"
            " if m in sys.modules]))\n"
        )
        assert loaded == []

    def test_session_serves_with_both_blocked(self):
        # A None entry makes any import of that package fail.
        result = run_python(
            "import json, sys\n"
            "sys.modules['networkx'] = None\n"
            "sys.modules['numpy'] = None\n"
            "import repro.core as parc\n"
            "from repro.apps.primes import PrimeServer\n"
            "with parc.session(parc.ParcConfig(nodes=2)):\n"
            "    server = parc.new(PrimeServer)\n"
            "    server.process(list(range(2, 30)))\n"
            "    found = server.found()\n"
            "    server.parc_release()\n"
            "print(json.dumps(found))\n"
        )
        assert result == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestNdarrayPayloads:
    def test_worker_imports_numpy_at_its_first_ndarray(self):
        result = run_python(
            "import array, json\n"
            "import numpy\n"
            "import repro.core as parc\n"
            f"from {THIS_MODULE} import Probe, on_worker, worker_config\n"
            "with parc.session(worker_config(1)):\n"
            "    probe = on_worker(Probe)\n"
            "    ints = array.array('i', range(64))\n"
            "    ints_back = probe.echo(ints) == ints\n"
            "    before = probe.numpy_loaded()\n"
            "    sent = numpy.arange(12, dtype=numpy.int16).reshape(3, 4)\n"
            "    back = probe.echo(sent)\n"
            "    after = probe.numpy_loaded()\n"
            "    probe.parc_release()\n"
            "print(json.dumps({\n"
            "    'ints_back': ints_back, 'before': before, 'after': after,\n"
            "    'dtype': back.dtype.str, 'values': back.tolist(),\n"
            "}))\n"
        )
        assert result["ints_back"] is True
        assert result["before"] is False  # array('i') alone never loads it
        assert result["after"] is True
        assert result["dtype"] == "<i2"
        assert result["values"] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]


class TestForkServer:
    def test_preload_starts_no_thread(self):
        count = run_python(
            "import importlib, json, threading\n"
            f"for name in {list(PRELOAD_MODULES)!r}:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps(threading.active_count()))\n"
        )
        assert count == 1

    def test_back_to_back_sessions_boot_child_workers(self):
        for _session in range(2):
            with parc.session(worker_config(2)) as rt:
                handles = rt.cluster.worker_handles
                pids = {handle.process.pid for handle in handles}
                children = {child.pid for child in multiprocessing.active_children()}
                assert len(pids) == 2 and pids <= children
                probes = [parc.new(Probe) for _ in range(3)]
                for probe in probes:
                    probe.post(2)
                assert sorted(probe.posted() for probe in probes) == [2, 2, 2]
                assert {probe.pid() for probe in probes} == pids | {os.getpid()}
                for probe in probes:
                    probe.parc_release()

    def test_unimportable_module_fails_the_boot_with_its_own_error(self):
        with pytest.raises(
            ScooppError,
            match="ModuleNotFoundError: No module named 'repro_no_such_module'",
        ):
            parc.init(worker_config(1, (THIS_MODULE, "repro_no_such_module")))
        # The fork server is unharmed: the next session boots.
        with parc.session(worker_config(1)):
            probe = on_worker(Probe)
            assert probe.echo("up") == "up"
            probe.parc_release()

    def test_worker_takes_the_callers_cpu_affinity(self):
        allowed = sorted(os.sched_getaffinity(0))
        if len(allowed) < 2:
            pytest.skip("needs two CPUs")
        with parc.session(worker_config(1)):
            pass  # the fork server now runs, and may use every CPU
        os.sched_setaffinity(0, allowed[-1:])
        try:
            with parc.session(worker_config(1)):
                probe = on_worker(Probe)
                cpus = probe.cpus()
                probe.parc_release()
        finally:
            os.sched_setaffinity(0, allowed)
        assert cpus == allowed[-1:]
