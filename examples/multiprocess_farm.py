#!/usr/bin/env python3
"""True parallelism: SCOOPP nodes as separate OS processes over TCP.

The paper's cluster ran one node per machine; this example runs one node
per *process* — each forked from a preloaded fork server, with its own
GIL — and farms a
CPU-bound prime count across them.  Compare wall-clock time against the
same work done sequentially: unlike the thread-backed clusters, process
workers actually overlap compute.

Run:  python examples/multiprocess_farm.py [limit] [workers]
"""

import sys
import time

import repro.core as parc
from repro.apps.primes import PrimeServer, sieve
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig


def sequential_count(limit: int) -> tuple[int, float]:
    started = time.perf_counter()
    count = len(sieve(limit))
    return count, time.perf_counter() - started


def farm_count(limit: int, workers: int, batch: int = 2000) -> tuple[int, float]:
    started = time.perf_counter()
    servers = [parc.new(PrimeServer) for _ in range(workers)]
    chunk: list[int] = []
    target = 0
    for candidate in range(2, limit):
        chunk.append(candidate)
        if len(chunk) >= batch:
            servers[target % workers].process(chunk)
            chunk = []
            target += 1
    if chunk:
        servers[target % workers].process(chunk)
    count = sum(server.count() for server in servers)
    for server in servers:
        server.parc_release()
    return count, time.perf_counter() - started


def main() -> None:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 120_000
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    expected, seq_s = sequential_count(limit)
    print(f"sequential sieve: {expected} primes < {limit} in {seq_s:.3f}s")
    print(f"(farm workers use trial division, so farm times are not "
          f"directly comparable to the sieve — compare farm vs farm)")

    # One local node + (workers) process nodes.  The worker module list is
    # the per-node boot code: each process imports it and thereby
    # registers the PrimeServer parallel class.
    parc.init(
        ParcConfig(
            nodes=1,
            channel="tcp",
            worker_processes=workers,
            worker_modules=("repro.apps.primes",),
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=2)),
        )
    )
    try:
        count, farm_s = farm_count(limit, workers)
        assert count == expected, (count, expected)
        print(
            f"{workers}-process farm: {count} primes in {farm_s:.3f}s "
            f"(real OS processes, real TCP)"
        )
        for node in parc.current_runtime().stats():
            print(
                f"  node {node['index']}: {node['ios']} IOs, "
                f"{node['processed']} calls"
            )
    finally:
        parc.shutdown()

    # Same farm, single process node, for the overlap comparison.
    parc.init(
        ParcConfig(
            nodes=1,
            channel="tcp",
            worker_processes=1,
            worker_modules=("repro.apps.primes",),
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=2)),
        )
    )
    try:
        count, one_s = farm_count(limit, 1)
        assert count == expected
        print(f"1-process farm:  {count} primes in {one_s:.3f}s")
        print(f"speedup {workers} vs 1 process: {one_s / farm_s:.2f}x")
    finally:
        parc.shutdown()


if __name__ == "__main__":
    main()
