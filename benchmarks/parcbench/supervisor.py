"""Runs the benchmark in a child and leaves no process behind it.

The runtime starts its workers with ``multiprocessing``'s spawn context,
which also starts a resource-tracker process.  That tracker ends only
when it reads end-of-file from the driver — that is, some milliseconds
*after* the driver has exited, and later still when it inherited a
pinned workload's single busy core.  Whoever started the benchmark
could therefore see a process outlive it.

So the command is two processes: the benchmark proper, in a process
group of its own, and this supervisor, which does nothing while the
benchmark measures.  When the benchmark has ended, the supervisor waits
for everything the benchmark started — orphans are re-parented to it,
it is a "child subreaper" — kills what does not end by itself, and only
then exits with the benchmark's exit code.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from typing import Callable

#: How long left-over processes get to end by themselves (the resource
#: tracker does, on end-of-file) before they are killed.
GRACE_S = 3.0

#: After this long the supervisor stops waiting for killed processes.
GIVE_UP_S = 20.0

_PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Have orphaned descendants re-parented to this process, so that it
    can wait for them.  Without it they still get killed, just not reaped
    here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _left_over(group: int) -> list[int]:
    """Live processes of process group *group*, plus anything re-parented
    to this process.  Zombies that are not ours to reap do not count."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                text = handle.read().decode("ascii", "replace")
        except OSError:
            continue  # ended between listdir and here
        state, parent, pgrp = text[text.rindex(")") + 2 :].split()[:3]
        if int(parent) == me or (int(pgrp) == group and state != "Z"):
            found.append(int(entry))
    return found


def _reap() -> None:
    """Collect every child that has ended, without blocking."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _end_group(group: int) -> None:
    """Wait until nothing the benchmark started is left; kill stragglers."""
    started = time.monotonic()
    while True:
        _reap()
        left = _left_over(group)
        waited = time.monotonic() - started
        if not left or waited > GIVE_UP_S:
            return
        if waited > GRACE_S:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def supervised(main: Callable[[], int]) -> int:
    """Run *main* in a forked child; return its exit code once every
    process it started has ended.  Call it before any thread exists."""
    _adopt_orphans()
    sys.stdout.flush()
    sys.stderr.flush()
    child = os.fork()
    if child == 0:
        os.setpgid(0, 0)
        # Out through the interpreter's normal shutdown, whatever main
        # does, so multiprocessing's exit handlers end daemonic workers.
        sys.exit(main())
    try:
        os.setpgid(child, child)  # both sides set it: no race either way
    except OSError:
        pass

    def pass_on(signum: int, _frame: object) -> None:
        try:
            os.killpg(child, signum)
        except ProcessLookupError:
            pass

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, pass_on)
    try:
        _, status = os.waitpid(child, 0)  # resumes after a passed-on signal
        code = os.waitstatus_to_exitcode(status)
    finally:
        _end_group(child)
    return code if code >= 0 else 128 - code
