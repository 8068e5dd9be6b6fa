#!/usr/bin/env python3
"""The paper's running example: PrimeServer farm and PrimeFilter pipeline.

Shows both prime workloads from the paper: the ``PrimeServer`` farm whose
generated PO/IO/factory code Figs. 4-7 walk through, and a sieve
*pipeline* of chained parallel objects — the fine-grained workload that
method-call aggregation (§3.1) exists for.  Compares runs with and
without aggregation and prints the message counts, making the
optimisation visible.

Run:  python examples/prime_pipeline.py [limit]
"""

import sys
import time

import repro.core as parc
from repro.apps.primes import farm_count_primes, pipeline_primes, sieve
from repro.benchlib.tables import format_table
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig


def run_with_policy(limit: int, policy: GrainPolicy, label: str) -> list:
    parc.init(ParcConfig(nodes=4, scheduler=SchedulerConfig(grain=policy)))
    try:
        started = time.perf_counter()
        primes = pipeline_primes(limit)
        elapsed = time.perf_counter() - started
        processed = sum(
            node["processed"] for node in parc.current_runtime().stats()
        )
        return [label, round(elapsed, 3), processed, len(primes)]
    finally:
        parc.shutdown()


def main() -> None:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 150
    expected = sieve(limit)
    print(f"primes <= {limit}: {len(expected)} (sequential sieve)")

    # The farm version (the paper's Figs. 4-7 class).
    parc.init(
        ParcConfig(
            nodes=4,
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=8)),
        )
    )
    try:
        count = farm_count_primes(limit, workers=4, batch=16)
        print(f"PrimeServer farm agrees: {count} primes")
        assert count == len(expected)
    finally:
        parc.shutdown()

    # The pipeline, with and without method-call aggregation.
    rows = [
        run_with_policy(limit, GrainPolicy(max_calls=1), "no aggregation"),
        run_with_policy(limit, GrainPolicy(max_calls=16), "max_calls=16"),
        run_with_policy(
            limit, GrainPolicy(agglomerate=True), "agglomerated (serial)"
        ),
    ]
    print()
    print(
        format_table(
            ["configuration", "seconds", "calls processed", "primes"],
            rows,
            title="PrimeFilter pipeline: grain-size adaptation at work",
        )
    )


if __name__ == "__main__":
    main()
