"""The process executor that implementation objects share.

An implementation object owns no thread: its mailbox schedules *runs* on
one pool per process (``repro.core.impl.executor()``).  These tests pin
what that pool promises — a grain that blocks never starves another, no
thread outlives the grains that needed it, and each grain still executes
one call at a time in arrival order, across migration pauses too.

Calls are posted with ``enqueue`` on objects built directly, so no PO
sender thread enters a thread count.  Counts that must be exact run in a
fresh interpreter, where no earlier test left objects behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

from repro.core.impl import ImplementationObject

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
