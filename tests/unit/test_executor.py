"""The process executor that both halves of a grain share.

Neither an implementation object nor a proxy object owns a thread.  The
IO's mailbox schedules *runs* on one pool per process
(``repro.core.impl.executor()``), and so does the PO's outbox
(``RemoteGrain``), whose partial buffers are flushed on time by one
flush clock per process.  These tests pin what that promises — a grain
that blocks never starves another, no thread outlives the grains that
needed it, and each grain still executes one call at a time in arrival
order, across migration pauses too.

Counts that must be exact run in a fresh interpreter, where no earlier
test left objects behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

from repro.core.impl import ImplementationObject
from repro.core.proxy_object import RemoteGrain
from repro.flow.credit import CreditGate

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def run_python(code: str):
    """Run *code* in a fresh interpreter; returns its last line as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestNoStarvation:
    def test_64_grains_blocked_at_one_barrier_all_finish(self):
        # Every call blocks until all 64 are executing at once: a pool
        # with fewer threads than blocked grains never gets there.
        barrier = threading.Barrier(64)
        met = []

        class Meeter:
            def meet(self):
                barrier.wait(timeout=20.0)
                met.append(True)

        impls = [ImplementationObject(Meeter(), "t.Meeter") for _ in range(64)]
        try:
            for impl in impls:
                impl.enqueue("meet")
            for impl in impls:
                impl.drain()
            assert len(met) == 64
            assert [impl.async_failures() for impl in impls] == [[]] * 64
        finally:
            for impl in impls:
                impl.dispose()


class TestThreadCensus:
    def test_live_grains_hold_few_threads_and_released_ones_none(self):
        before, live, after = run_python(
            "import json, threading\n"
            "from repro.core.impl import ImplementationObject\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "    def add(self):\n"
            "        self.n += 1\n"
            "before = threading.active_count()\n"
            "impls = [ImplementationObject(Counter(), 't.Counter')"
            " for _ in range(500)]\n"
            "for impl in impls:\n"
            "    impl.enqueue('add')\n"
            "for impl in impls:\n"
            "    impl.drain()\n"
            "assert all(impl.instance.n == 1 for impl in impls)\n"
            "live = threading.active_count()\n"
            "for impl in impls:\n"
            "    impl.dispose()\n"
            "print(json.dumps([before, live, threading.active_count()]))\n"
        )
        assert live - before <= 32
        assert after == before


class TestOrdering:
    def test_fifo_and_one_at_a_time_under_racing_posters(self):
        # Four callers mix async posts with sync calls, which try the
        # inline claim and race the scheduled runs for the grain.
        class Ledger:
            def __init__(self):
                self.active = 0
                self.overlaps = 0
                self.seen = []

            def record(self, poster, seq):
                self.active += 1
                if self.active > 1:
                    self.overlaps += 1
                self.seen.append((poster, seq))
                self.active -= 1
                return seq

        ledger = Ledger()
        impl = ImplementationObject(ledger, "t.Ledger")
        start = threading.Barrier(4)

        def poster(index):
            start.wait(timeout=10.0)
            for seq in range(300):
                if seq % 7 == 0:
                    assert impl.invoke("record", (index, seq)) == seq
                else:
                    impl.enqueue("record", (index, seq))

        threads = [
            threading.Thread(target=poster, args=(index,)) for index in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            impl.drain()
        finally:
            sys.setswitchinterval(interval)
            impl.dispose()
        assert ledger.overlaps == 0
        assert len(ledger.seen) == 1200
        for index in range(4):
            mine = [seq for who, seq in ledger.seen if who == index]
            assert mine == list(range(300))
        assert impl.stats()["processed"] == 1200


class TestMigrationPause:
    def test_begin_waits_out_the_run_and_abort_resumes_service(self):
        entered, release = threading.Event(), threading.Event()
        log = []

        class Slow:
            def hold(self):
                entered.set()
                release.wait(timeout=10.0)
                log.append("hold")

            def record(self, value):
                log.append(value)

        impl = ImplementationObject(Slow(), "t.Slow")
        try:
            impl.enqueue("hold")
            assert entered.wait(timeout=5.0)
            impl.enqueue("record", (1,))
            extracted = []
            pauser = threading.Thread(
                target=lambda: extracted.append(impl.begin_migration())
            )
            pauser.start()
            pauser.join(timeout=0.1)
            assert pauser.is_alive()  # the run holding "hold" is not done
            release.set()
            pauser.join(timeout=5.0)
            assert not pauser.is_alive()
            (entries,) = extracted
            # The run ended after its entry; the next one waits, extracted.
            assert log == ["hold"]
            assert [len(entry) for entry in entries] == [1]
            impl.abort_migration(entries)
            impl.enqueue("record", (2,))
            impl.drain()
            assert log == ["hold", 1, 2]
        finally:
            release.set()
            impl.dispose()


# -- the PO side ------------------------------------------------------------


class Counter:
    def __init__(self):
        self.n = 0

    def add(self):
        self.n += 1


def wait_until(predicate, timeout):
    """Poll *predicate* until it holds; False if *timeout* passes first."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class TestProxyThreadCensus:
    def test_live_proxies_hold_few_threads_and_released_ones_none(self):
        before, live, after = run_python(
            "import json, threading\n"
            "from repro.core.impl import ImplementationObject\n"
            "from repro.core.proxy_object import RemoteGrain\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "    def add(self):\n"
            "        self.n += 1\n"
            "before = threading.active_count()\n"
            "grains = [RemoteGrain(ImplementationObject(Counter(), 't.Counter'),"
            " max_calls=1) for _ in range(300)]\n"
            "for grain in grains:\n"
            "    grain.post('add', (), {})\n"
            "for grain in grains:\n"
            "    grain.drain()\n"
            "assert all(grain.impl.instance.n == 1 for grain in grains)\n"
            "live = threading.active_count()\n"
            "for grain in grains:\n"
            "    grain.dispose()\n"
            "print(json.dumps([before, live, threading.active_count()]))\n"
        )
        assert live - before <= 32
        assert after == before


class TestFlushClock:
    def test_partial_buffers_of_50_grains_all_ship_on_time(self):
        flush_after_s = 0.02
        grains = [
            RemoteGrain(
                ImplementationObject(Counter(), "t.Counter"),
                max_calls=4,
                flush_after_s=flush_after_s,
            )
            for _ in range(50)
        ]
        try:
            for grain in grains:
                grain.post("add", (), {})
            posted = time.monotonic()
            assert wait_until(
                lambda: all(grain.batches + grain.singles for grain in grains),
                timeout=5.0,
            )
            assert time.monotonic() - posted <= 10 * flush_after_s
            for grain in grains:
                grain.drain()
            assert [grain.impl.instance.n for grain in grains] == [1] * 50
        finally:
            for grain in grains:
                grain.dispose()

    def test_forked_child_still_auto_flushes(self):
        exit_code = run_python(
            "import json, os, time\n"
            "from repro.core.impl import ImplementationObject\n"
            "from repro.core.proxy_object import RemoteGrain\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "    def add(self):\n"
            "        self.n += 1\n"
            "def auto_flushed():\n"
            "    io = ImplementationObject(Counter(), 't.Counter')\n"
            "    grain = RemoteGrain(io, max_calls=4, flush_after_s=0.02)\n"
            "    grain.post('add', (), {})\n"
            "    deadline = time.monotonic() + 5.0\n"
            "    while io.instance.n == 0 and time.monotonic() < deadline:\n"
            "        time.sleep(0.005)\n"
            "    shipped = io.instance.n == 1\n"
            "    grain.dispose()\n"
            "    return shipped\n"
            "assert auto_flushed()  # the parent's clock thread now runs\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os._exit(0 if auto_flushed() else 1)\n"
            "_, status = os.waitpid(pid, 0)\n"
            "print(json.dumps(os.waitstatus_to_exitcode(status)))\n"
        )
        assert exit_code == 0


class GatedIO:
    """Forwards ``enqueue`` to an IO once the credit gate admits it."""

    def __init__(self, io, gate):
        self.io = io
        self.gate = gate

    def enqueue(self, method, args=(), kwargs=None):
        self.gate.acquire()
        try:
            self.io.enqueue(method, args, kwargs)
        finally:
            self.gate.release()

    def drain(self):
        self.io.drain()

    def dispose(self):
        self.io.dispose()


class TestProxyNoStarvation:
    def test_send_stalled_on_credit_does_not_delay_another_grain(self):
        gate = CreditGate(window=1, stall_timeout_s=10.0)
        gate.acquire()  # the only credit is in flight: zero left
        stalled_io = ImplementationObject(Counter(), "t.Counter")
        stalled = RemoteGrain(GatedIO(stalled_io, gate), max_calls=1)
        free_io = ImplementationObject(Counter(), "t.Counter")
        free = RemoteGrain(free_io, max_calls=1)
        try:
            stalled.post("add", (), {})
            assert wait_until(lambda: gate._waiters == 1, timeout=5.0)
            free.post("add", (), {})
            free.drain()
            assert free_io.instance.n == 1
            assert stalled_io.instance.n == 0  # still waiting for credit
            gate.release()
            stalled.drain()
            assert stalled_io.instance.n == 1
        finally:
            gate.release()
            stalled.dispose()
            free.dispose()


class TestProxyOrdering:
    def test_program_order_per_poster_under_racing_calls(self):
        class Ledger:
            def __init__(self):
                self.active = 0
                self.overlaps = 0
                self.seen = []

            def record(self, poster, seq):
                self.active += 1
                if self.active > 1:
                    self.overlaps += 1
                self.seen.append((poster, seq))
                self.active -= 1
                return seq

        ledger = Ledger()
        grain = RemoteGrain(
            ImplementationObject(ledger, "t.Ledger"),
            max_calls=4,
            flush_after_s=0.001,
        )
        start = threading.Barrier(4)

        def poster(index):
            start.wait(timeout=10.0)
            for seq in range(300):
                if seq % 7 == 0:
                    assert grain.call("record", (index, seq), {}) == seq
                else:
                    grain.post("record", (index, seq), {})

        threads = [
            threading.Thread(target=poster, args=(index,)) for index in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            grain.drain()
        finally:
            sys.setswitchinterval(interval)
            grain.dispose()
        assert ledger.overlaps == 0
        assert len(ledger.seen) == 1200
        for index in range(4):
            mine = [seq for who, seq in ledger.seen if who == index]
            assert mine == list(range(300))
