"""The executor's cap, its managed blocking and its starvation check.

An executor runs at most ``cap`` runnable threads — a small multiple of
the cores.  A run that waits on something the runtime can name does so
inside ``blocking()``, which takes its thread out of that count;
blocking the runtime cannot see is caught by a timer-driven starvation
check that starts one thread at a time.  The check is stepped here on a
:class:`~repro.perfmodel.clock.VirtualClock` timer, as ``test_timer.py``
steps the timer itself: an ``Executor`` given its own cap and timer is
a test seam, like ``Timer(clock)``.

Counts that must be exact run in a fresh interpreter.
"""

from __future__ import annotations

import os
import threading
from types import SimpleNamespace

import pytest

import repro.core as parc
from repro.channels import LoopbackChannel, TcpChannel
from repro.channels.services import ChannelServices
from repro.core import ParcConfig, session
from repro.core.impl import ImplementationObject
from repro.core.model import parallel
from repro.executor import (
    STARVATION_CHECK_S,
    THREADS_PER_CORE,
    Executor,
    Timer,
    blocking,
    executor,
)
from repro.perfmodel.clock import VirtualClock
from repro.remoting import MarshalByRefObject, RemotingHost
from tests.entries import post
from tests.unit.test_executor import run_python, wait_until


def stepped(cap: int) -> tuple[Executor, Timer, VirtualClock]:
    """An executor whose starvation check only fires when stepped."""
    clock = VirtualClock()
    timer = Timer(clock=clock)
    return Executor(cap=cap, timer=timer), timer, clock


def hold(pool: Executor, gate: threading.Event, managed: bool) -> list:
    """Submit a run that waits on *gate*, inside ``blocking()`` if
    *managed*; the returned list gets True once it ran to the end."""
    done: list = []

    def run() -> None:
        if managed:
            with blocking():
                assert gate.wait(timeout=10.0)
        else:
            assert gate.wait(timeout=10.0)
        done.append(True)

    pool.submit(run)
    return done


class TestCap:
    def test_send_runs_to_slow_admission_never_exceed_the_cap(self):
        cap, peak, shipped = run_python(
            "import json, threading, time\n"
            "import repro.executor\n"
            "from repro.core.impl import ImplementationObject\n"
            "from repro.core.proxy_object import RemoteGrain\n"
            "from repro.executor import Timer, Executor, executor\n"
            "from repro.perfmodel.clock import VirtualClock\n"
            "# The process executor, its starvation check on a clock that\n"
            "# never moves: a descheduled host cannot add a thread here.\n"
            "repro.executor._executor = Executor(timer=Timer(VirtualClock()))\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "    def add(self):\n"
            "        self.n += 1\n"
            "peak = 0\n"
            "class SlowIO:\n"
            "    # Admission takes half a millisecond of interpreter time.\n"
            "    def __init__(self):\n"
            "        self.io = ImplementationObject(Counter(), 't.Counter')\n"
            "    def enqueue_batch(self, entries):\n"
            "        global peak\n"
            "        names = [t.name for t in threading.enumerate()]\n"
            "        peak = max(peak, names.count('parc-exec'),\n"
            "                   executor().stats()['threads'])\n"
            "        until = time.perf_counter() + 0.0005\n"
            "        while time.perf_counter() < until:\n"
            "            pass\n"
            "        self.io.enqueue_batch(entries)\n"
            "    def drain(self):\n"
            "        self.io.drain()\n"
            "    def dispose(self):\n"
            "        self.io.dispose()\n"
            "grains = [RemoteGrain(SlowIO(), max_calls=1) for _ in range(300)]\n"
            "for grain in grains:\n"
            "    grain.post('add', (), {})\n"
            "for grain in grains:\n"
            "    grain.drain()\n"
            "shipped = sum(grain.impl.io.instance.n for grain in grains)\n"
            "for grain in grains:\n"
            "    grain.dispose()\n"
            "print(json.dumps([executor().stats()['cap'], peak, shipped]))\n"
        )
        assert shipped == 300
        assert 1 <= peak <= cap

    def test_forked_child_reads_its_own_cap(self):
        parent_cap, child_cap, child_cores = run_python(
            "import json, os\n"
            "from repro.executor import executor\n"
            "parent_cap = executor().cap\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "read, write = os.pipe()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os.write(write, json.dumps([executor().cap,"
            " len(os.sched_getaffinity(0))]).encode())\n"
            "    os._exit(0)\n"
            "os.waitpid(pid, 0)\n"
            "child = json.loads(os.read(read, 1024))\n"
            "print(json.dumps([parent_cap] + child))\n"
        )
        assert child_cores == 1
        assert child_cap == THREADS_PER_CORE
        assert parent_cap == THREADS_PER_CORE * len(os.sched_getaffinity(0))


class TestManagedBlocking:
    def test_a_run_completes_at_once_while_cap_runs_block_inside_it(self):
        pool, _timer, _clock = stepped(cap=2)
        gate = threading.Event()
        try:
            held = [hold(pool, gate, managed=True) for _ in range(2)]
            assert wait_until(lambda: pool.stats()["blocked"] == 2, timeout=5.0)
            ran = threading.Event()
            pool.submit(ran.set)
            # The virtual timer never fires, so only blocking() can have
            # made room for this run.
            assert ran.wait(timeout=5.0)
            assert pool.stats()["starvation_starts"] == 0
        finally:
            gate.set()
        assert wait_until(lambda: held == [[True], [True]], timeout=5.0)

    def test_outside_a_pool_thread_it_does_nothing(self):
        pool, _timer, _clock = stepped(cap=1)
        with blocking():
            assert pool.stats()["blocked"] == 0

    def test_nested_blocking_counts_once(self):
        pool, _timer, _clock = stepped(cap=2)
        inside, leave = threading.Event(), threading.Event()

        def run() -> None:
            with blocking():
                with blocking():
                    inside.set()
                    assert leave.wait(timeout=10.0)

        try:
            pool.submit(run)
            assert inside.wait(timeout=5.0)
            assert pool.stats()["blocked"] == 1
        finally:
            leave.set()
        assert wait_until(lambda: pool.stats()["blocked"] == 0, timeout=5.0)


class Probe(MarshalByRefObject):
    def __init__(self, pool: Executor) -> None:
        self.pool = pool

    def blocked(self) -> int:
        return self.pool.stats()["blocked"]


class TestRemoteCalls:
    @pytest.mark.parametrize(
        "make, authority, blocked",
        [(LoopbackChannel, "auto", 0), (TcpChannel, "127.0.0.1:0", 1)],
    )
    def test_only_a_call_that_waits_is_managed_blocking(
        self, make, authority, blocked
    ):
        # Loopback runs the handler, user code included, on the calling
        # pool thread: that thread must stay runnable.  Over tcp the
        # handler runs on the server's thread while the caller waits.
        pool, _timer, _clock = stepped(cap=1)
        server = RemotingHost(name="probe-server", services=ChannelServices())
        binding = server.listen(make(), authority)
        server.publish(Probe(pool), "probe")
        services = ChannelServices()
        services.register_channel(make())
        client = RemotingHost(name="probe-client", services=services)
        proxy = client.get_object(f"{make.scheme}://{binding.authority}/probe")
        seen: list = []
        done = threading.Event()

        def run() -> None:
            seen.append(proxy.blocked())
            done.set()

        try:
            pool.submit(run)
            assert done.wait(timeout=10.0)
        finally:
            client.close()
            server.close()
        assert seen == [blocked]


class Waiter:
    def __init__(self, gate: threading.Event) -> None:
        self.gate = gate
        self.done = 0

    def wait(self) -> None:
        assert self.gate.wait(timeout=10.0)
        self.done += 1


class Recorder:
    def __init__(self, log: list, name: str) -> None:
        self.log, self.name = log, name

    def note(self, n: int) -> None:
        self.log.append(f"{self.name}{n}")


class TestTurns:
    def test_a_backlog_takes_turns_with_runs_waiting_at_the_cap(self):
        # One thread: grain A's three queued calls would hold it until
        # all ran; while B's run waits at the cap, A's run hands the
        # thread on after each entry.
        pool, _timer, _clock = stepped(cap=1)
        node = SimpleNamespace(executor=pool)
        log: list = []
        a = ImplementationObject(Recorder(log, "a"), "t.Recorder", node=node)
        b = ImplementationObject(Recorder(log, "b"), "t.Recorder", node=node)
        gate = threading.Event()
        try:
            hold(pool, gate, managed=False)
            assert wait_until(lambda: pool.stats()["threads"] == 1, timeout=5.0)
            for n in (1, 2, 3):
                post(a, "note", (n,))
            post(b, "note", (1,))
            assert pool.stats()["waiting"] == 2
        finally:
            gate.set()
        a.drain()
        b.drain()
        a.dispose()
        b.dispose()
        assert log == ["a1", "b1", "a2", "a3"]


@parallel(name="test.cap.Idle", async_methods=["touch"])
class Idle:
    def touch(self) -> None:
        pass


class TestNodePools:
    def test_a_node_whose_runs_all_block_does_not_hold_up_another(self):
        # Two nodes' pools, each at cap 1, their checks never stepped:
        # node A's one thread blocks where the runtime cannot see, and
        # node B's grain still runs at once.
        (pool_a, _, _), (pool_b, _, _) = stepped(cap=1), stepped(cap=1)
        node_a = SimpleNamespace(executor=pool_a)
        node_b = SimpleNamespace(executor=pool_b)
        gate = threading.Event()
        blocked = [
            ImplementationObject(Waiter(gate), "t.Waiter", node=node_a)
            for _ in range(2)
        ]
        free = ImplementationObject(Waiter(gate), "t.Waiter", node=node_b)
        try:
            for impl in blocked:
                post(impl, "wait")
            assert wait_until(lambda: pool_a.stats()["waiting"] == 1, timeout=5.0)
            gate_b = threading.Event()
            free.instance.gate = gate_b
            gate_b.set()
            post(free, "wait")
            free.drain()
            assert free.instance.done == 1
            assert pool_a.stats()["threads"] == 1
            assert pool_a.stats()["waiting"] == 1
        finally:
            gate.set()
        for impl in blocked + [free]:
            impl.dispose()
        assert [impl.instance.done for impl in blocked] == [1, 1]

    def test_each_node_hosts_its_grains_on_its_own_pool(self):
        with session(ParcConfig(nodes=2)) as rt:
            nodes = rt.cluster.nodes
            grains = [parc.new(Idle) for _ in range(4)]
            pools = {
                id(impl._mailbox._pool)
                for node in nodes
                for impl in node._impls
            }
            assert pools == {id(node.executor) for node in nodes}
            assert executor() not in [node.executor for node in nodes]
            for grain in grains:
                grain.parc_release()


class TestStarvationCheck:
    def test_invisible_blocking_gets_one_thread_per_interval(self):
        pool, timer, clock = stepped(cap=1)
        gate = threading.Event()
        try:
            held = hold(pool, gate, managed=False)
            assert wait_until(lambda: pool.stats()["threads"] == 1, timeout=5.0)
            ran = threading.Event()
            pool.submit(ran.set)
            assert pool.stats()["waiting"] == 1  # queued at the cap
            clock.advance(STARVATION_CHECK_S / 2)
            timer.run_due()
            assert pool.stats()["starvation_starts"] == 0
            clock.advance(STARVATION_CHECK_S / 2)
            timer.run_due()
            assert ran.wait(timeout=5.0)
            assert pool.stats()["starvation_starts"] == 1
        finally:
            gate.set()
        assert wait_until(lambda: held == [True], timeout=5.0)

    def test_a_finished_run_postpones_the_next_start(self):
        pool, timer, clock = stepped(cap=1)
        first, second = threading.Event(), threading.Event()
        try:
            hold(pool, first, managed=False)
            assert wait_until(lambda: pool.stats()["threads"] == 1, timeout=5.0)
            hold(pool, second, managed=False)
            ran = threading.Event()
            pool.submit(ran.set)
            first.set()  # progress: the thread moves on to the second hold
            assert wait_until(lambda: pool.stats()["waiting"] == 1, timeout=5.0)
            clock.advance(STARVATION_CHECK_S)
            timer.run_due()
            assert pool.stats()["starvation_starts"] == 0
            assert not ran.is_set()
            clock.advance(STARVATION_CHECK_S)
            timer.run_due()  # no run finished since the re-arm
            assert ran.wait(timeout=5.0)
            assert pool.stats()["starvation_starts"] == 1
        finally:
            first.set()
            second.set()

    def test_a_drained_queue_disarms_the_check(self):
        pool, timer, clock = stepped(cap=1)
        gate = threading.Event()
        hold(pool, gate, managed=False)
        assert wait_until(lambda: pool.stats()["threads"] == 1, timeout=5.0)
        ran = threading.Event()
        pool.submit(ran.set)
        gate.set()
        assert ran.wait(timeout=5.0)
        clock.advance(10 * STARVATION_CHECK_S)
        timer.run_due()
        assert pool.stats()["starvation_starts"] == 0


class TestExecutorRow:
    def test_metrics_snapshot_fields_move(self):
        rows = run_python(
            "import json, threading\n"
            "from repro.core import ParcConfig, session\n"
            "from repro.executor import blocking, executor\n"
            "from tests.unit.test_executor import wait_until\n"
            "def row(rt):\n"
            "    merged = rt.metrics_snapshot()['cluster']\n"
            "    return {k.split('.', 1)[1]: v['value'] for k, v in"
            " merged.items() if k.startswith('executor.')}\n"
            "pool = executor()\n"
            "managed, invisible = threading.Event(), threading.Event()\n"
            "def blocked():\n"
            "    with blocking():\n"
            "        managed.wait(30)\n"
            "rows = []\n"
            "pool.attach()  # a client: one thread stays idle for it\n"
            "with session(ParcConfig()) as rt:\n"
            "    rows.append(row(rt))\n"
            "    for _ in range(pool.cap):\n"
            "        pool.submit(blocked)\n"
            "    assert wait_until(lambda: pool.stats()['blocked'] == pool.cap, 10)\n"
            "    rows.append(row(rt))\n"
            "    for _ in range(pool.cap):\n"
            "        pool.submit(lambda: invisible.wait(30))\n"
            "    assert wait_until(lambda: pool.stats()['threads'] == 2 * pool.cap, 10)\n"
            "    pool.submit(lambda: invisible.wait(30))\n"
            "    rows.append(row(rt))\n"
            "    assert wait_until(lambda: pool.stats()['starvation_starts'], 10)\n"
            "    rows.append(row(rt))\n"
            "    managed.set()\n"
            "    invisible.set()\n"
            "    assert wait_until(lambda: pool.stats()['blocked'] == 0"
            " and pool.stats()['idle'], 10)\n"
            "    rows.append(row(rt))\n"
            "    nodes = len(rt.cluster.nodes)\n"
            "pool.detach()\n"
            "print(json.dumps([pool.cap, nodes] + rows))\n"
        )
        cap, nodes, start, managed, queued, starved, settled = rows
        # The row sums the process's pool and one per in-process node;
        # only the process's pool gets runs here.
        assert start["cap"] == cap * (1 + nodes)
        assert start["threads"] == 0
        assert start["blocked"] == 0 and start["starvation_starts"] == 0
        assert managed["blocked"] == cap
        assert managed["threads"] >= cap
        assert queued["waiting"] == 1 and queued["threads"] == 2 * cap
        assert starved["starvation_starts"] == 1
        assert starved["threads"] == 2 * cap + 1
        assert settled["blocked"] == 0 and settled["waiting"] == 0
        assert settled["idle"] >= 1
