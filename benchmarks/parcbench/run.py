#!/usr/bin/env python3
"""parcbench: five end-to-end workloads on real worker processes, plus a
per-layer call ladder.  See README.md next to this file.

    python3 benchmarks/parcbench/run.py [--workload W] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--selfcheck]

Without ``--workload`` every workload runs, untraced and traced, and
every metric is printed.  With it, one run is made and the last line of
standard output is the result object ``BENCHMARK.json``'s contract
describes: the end-to-end metrics under ``--trace 0``, the per-layer
metrics under ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")

if not os.path.isdir(os.path.join(SOURCE, "repro")):
    # The benchmark measures the runtime in src/; without it there is
    # nothing to build or run.
    sys.exit(f"parcbench: no runtime to measure: {SOURCE}/repro is missing")
for _path in (HERE, SOURCE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import harness  # noqa: E402
import measure  # noqa: E402
import supervisor  # noqa: E402
import trace_run  # noqa: E402
import workloads  # noqa: E402


def load_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def keep_temp_files_in_checkout() -> None:
    """Point ``tempfile`` (the shm rung's handshake sockets) into ``out/``.

    Unix socket paths are limited to ~100 bytes, so a deep checkout keeps
    the system default instead of failing to bind.
    """
    temp = os.path.join(OUT, "tmp")
    if len(temp) <= 60:
        os.makedirs(temp, exist_ok=True)
        os.environ["TMPDIR"] = temp


def result_line(title: str, metrics: dict, declared: list[dict], attempted: int, failed: int) -> dict:
    """Print *metrics* by name with their declared units and build the
    result object; the names must be exactly the *declared* ones."""
    units = {item["name"]: item["unit"] for item in declared}
    if set(units) != set(metrics):
        raise SystemExit(
            f"parcbench: {title}: metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(units))}"
        )
    print(f"-- {title}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.4f} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def record(name: str, document: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)


def run_untraced(contract: dict, name: str, seed: int, seconds: float, smoke: bool):  # type: ignore[no-untyped-def]
    """One untraced run of *name*: prints it, returns ``(line, result)``."""
    plan = workloads.plan(name, seconds, smoke)
    result = harness.run_workload(
        plan, seed, seconds, boots=1 if smoke else harness.SETUP_BOOTS
    )
    parallel = result.parallel
    attempted = parallel.attempted + result.sequential.attempted
    failed = parallel.failed + result.sequential.failed
    line = result_line(
        f"{name} (seed {seed}, {sum(parallel.ops)} ops in {result.timed_s:.2f}s)",
        harness.end_to_end(result), contract["end_to_end"], attempted, failed,
    )
    blocks = harness.block_medians(result)
    print(f"{'unscaled medians (not gated)':40s} {blocks['raw_ops_per_s']:.1f} 1/s, "
          f"{blocks['raw_rtt_p50_us']:.1f} us at host factor "
          f"{measure.median(parallel.host):.2f}")
    q1, q2, q3 = measure.quartiles(parallel.rates())
    print(f"{'segment rate quartiles (not gated)':40s} {q1:.1f} / {q2:.1f} / {q3:.1f} "
          f"1/s over {len(parallel.ops)} segments")
    tail = measure.tail_percentile(parallel.latencies_ns)
    if tail is not None:
        pct, value, count = tail
        print(f"{'rtt tail (not gated)':40s} p{pct:g} = {value / 1000.0:.1f} us "
              f"over {count} samples")
    print(f"{'fail_ratio':40s} {failed / attempted:.6f} ({failed} of {attempted})")
    warnings = measure.busy_warnings(
        result.load_before, result.load_after, result.steal_ticks, result.timed_s
    )
    for warning in warnings:
        print(f"WARNING: {warning}")
    record(
        f"{name}-seed{seed}.json",
        {
            **line,
            "workload": name,
            "seed": seed,
            "plan": vars(plan),
            "environment": {
                **measure.environment(),
                "cores": sorted(result.cores),
                "load_before": result.load_before,
                "load_after": result.load_after,
                "steal_ticks": result.steal_ticks,
                "timed_s": result.timed_s,
                "warnings": warnings,
            },
            "setup_samples_s": [b.setup_s for b in result.boots],
            "segment_rates": parallel.rates(),
            "host_factor": parallel.host,
        },
    )
    return line, result


def run_traced(contract: dict, names: list[str], seed: int, seconds: float, smoke: bool, full_runs=None) -> list[dict]:  # type: ignore[no-untyped-def]
    """The traced pass: the ladder plus each of *names*' per-process split."""
    passes, trace_path = trace_run.run(names, seed, seconds, smoke, OUT, full_runs)
    lines = []
    for name, (metrics, attempted, failed) in passes.items():
        line = result_line(
            f"per-layer ({name}, seed {seed})",
            metrics, contract["per_layer"], attempted, failed,
        )
        record(
            f"{name}-seed{seed}-layers.json",
            {**line, "workload": name, "seed": seed,
             "environment": measure.environment()},
        )
        lines.append(line)
    print(f"chrome trace: {os.path.relpath(trace_path, REPO)}")
    return lines


def run_in_fresh_process(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One untraced run the way the benchmark driver makes it: its own
    process (what earlier runs leave behind in a driver process — threads
    and memory the runtime does not give back at shutdown — would
    otherwise count towards ``threads_peak`` and ``peak_rss_mb``)."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"parcbench: {name} run printed no result")
    return json.loads(lines[-1])


#: Runs per workload in each of ``--selfcheck``'s two sets; the sets'
#: medians are compared.  One run per set would mostly measure how two
#: single runs differ on a shared host (``setup_s`` alone spreads 10-20 %).
SELFCHECK_RUNS = 3


def selfcheck(contract: dict, seed: int, seconds: float, smoke: bool) -> int:
    """Two back-to-back sets of the same code must agree within bounds.

    Both sets use the same seeds; each metric's median over a set's runs
    stands for the set, as the driver's medians over ten runs do.
    """
    names = [item["name"] for item in contract["end_to_end"]]
    sets: list[dict[str, dict[str, float]]] = []
    correct = True
    for label in ("A1", "A2"):
        medians = {}
        for workload in workloads.WORKLOADS:
            print(f"== selfcheck set {label}: {workload}", flush=True)
            runs = [
                run_in_fresh_process(workload, seed + offset, seconds, smoke)
                for offset in range(SELFCHECK_RUNS)
            ]
            correct = correct and all(run["correct"] for run in runs)
            medians[workload] = {
                name: measure.median([r["metrics"][name]["value"] for r in runs])
                for name in names
            }
        sets.append(medians)
    print(f"== selfcheck: medians of {SELFCHECK_RUNS} runs, set A1 against set A2")
    status = 0 if correct else 1
    for workload in workloads.WORKLOADS:
        for item in contract["end_to_end"]:
            name, bound = item["name"], item["bound"]
            first, second = sets[0][workload][name], sets[1][workload][name]
            diff = measure.relative_difference(first, second)
            verdict = "ok" if diff <= bound else "OUTSIDE BOUND"
            if diff > bound:
                status = 1
            print(f"{workload:16s} {name:16s} {first:14.4f} {second:14.4f} "
                  f"{100 * diff:6.2f}% (bound {100 * bound:.0f}%) {verdict}")
    return status


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="same code paths at 1/100 of the counts")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload twice and compare")
    args = parser.parse_args(argv)
    keep_temp_files_in_checkout()

    if args.selfcheck:
        return selfcheck(contract, args.seed, args.seconds, args.smoke)

    lines = []
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    full_runs = {}
    # One named workload makes the run --trace asks for; without a name
    # everything runs, untraced first and then traced.
    if not args.workload or args.trace != 1:
        for name in names:
            line, full_runs[name] = run_untraced(
                contract, name, args.seed, args.seconds, args.smoke
            )
            lines.append(line)
    if not args.workload or args.trace == 1:
        lines += run_traced(
            contract, names, args.seed, args.seconds, args.smoke, full_runs
        )
    if args.workload:
        final = lines[-1]
    else:
        final = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    # In a child of its own, so that nothing the run started — the
    # runtime's resource tracker least of all — outlives this command.
    sys.exit(supervisor.supervised(main))
