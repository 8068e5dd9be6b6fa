"""The supervisor leaves nothing behind, whatever the run left."""

import os
import subprocess
import sys

import measure

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import subprocess, sys
sys.path.insert(0, {bench!r})
import supervisor
supervisor.GRACE_S = {grace}

def main():
    # Started and never waited for, as the resource tracker is.
    stray = subprocess.Popen(["sleep", "{sleep}"])
    print(stray.pid, flush=True)
    {body}

sys.exit(supervisor.supervised(main))
"""


def run(body: str, sleep: str = "60", grace: float = 0.2):
    script = SCRIPT.format(bench=BENCH, grace=grace, sleep=sleep, body=body)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    return done, int(done.stdout.split()[0])


def test_stray_that_never_ends_is_killed_and_the_exit_code_kept():
    done, stray = run("return 7")
    assert done.returncode == 7
    assert not measure.pid_alive(stray)
    assert not os.path.exists(f"/proc/{stray}")  # reaped, not a zombie


def test_stray_that_ends_by_itself_is_waited_for():
    done, stray = run("return 0", sleep="0.5", grace=30.0)
    assert done.returncode == 0
    assert not os.path.exists(f"/proc/{stray}")


def test_failing_run_exits_nonzero_and_still_cleans_up():
    done, stray = run("raise RuntimeError('boom')")
    assert done.returncode == 1
    assert "boom" in done.stderr
    assert not os.path.exists(f"/proc/{stray}")
