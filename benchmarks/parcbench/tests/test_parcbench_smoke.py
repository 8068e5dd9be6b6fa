"""One ``--smoke`` pass through the real command."""

import json
import os
import re
import subprocess
import sys

import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(os.path.dirname(BENCH))


def test_smoke_emits_every_declared_metric_once_per_workload():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=REPO,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1

    # Blocks are "-- <title>" lines followed by "name value unit" lines.
    blocks: dict[str, list[str]] = {}
    title = None
    for line in done.stdout.splitlines():
        if line.startswith("-- "):
            title = line[3:]
            blocks[title] = []
        elif title is not None and re.match(r"^[\w.]+ +-?[\d.]+ \S+$", line):
            blocks[title].append(line.split()[0])
    for workload in workloads.WORKLOADS:
        for kind, prefix in (("end_to_end", f"{workload} ("), ("per_layer", f"per-layer ({workload},")):
            titles = [t for t in blocks if t.startswith(prefix)]
            assert len(titles) == 1, (workload, kind, list(blocks))
            emitted = blocks[titles[0]]
            declared = [item["name"] for item in contract[kind]]
            assert sorted(emitted) == sorted(declared), (workload, kind)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files there is
    no runtime to measure: fail fast, print no result line."""
    import shutil

    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH, tmp_path / "benchmarks" / "parcbench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/parcbench/run.py", "--workload", "sync_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
