#!/usr/bin/env python3
"""Quickstart: the SCOOPP programming model in one file.

Declares a parallel class, boots a 4-node runtime, and shows the three
behaviours the paper's model defines (§3.1):

* asynchronous calls (no return value) that may be aggregated,
* synchronous calls (with a return value) that flush and round-trip,
* placement of implementation objects across nodes by the object manager.

Run:  python examples/quickstart.py
"""

import repro.core as parc
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig


@parc.parallel
class Histogram:
    """Counts observations into buckets (the implementation object)."""

    def __init__(self, buckets):
        self.counts = [0] * buckets

    def observe(self, value):
        """Record one observation (asynchronous: no return value)."""
        self.counts[value % len(self.counts)] += 1

    def totals(self):
        """Current bucket counts (synchronous: returns a value)."""
        return list(self.counts)


def main() -> None:
    # Boot 4 nodes; aggregate asynchronous calls 8 per message (§3.1's
    # method-call aggregation).
    parc.init(
        ParcConfig(
            nodes=4,
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=8)),
        )
    )
    try:
        # Each PO's implementation object is placed by the object manager
        # (round-robin by default) — these four live on different nodes.
        histograms = [parc.new(Histogram, 10) for _ in range(4)]

        for value in range(1000):
            histograms[value % 4].observe(value)

        # Synchronous calls flush pending asynchronous work first, so the
        # totals always reflect every observe() issued above.
        grand_total = 0
        for index, histogram in enumerate(histograms):
            totals = histogram.totals()
            grand_total += sum(totals)
            print(f"histogram {index}: {totals}")
        print(f"grand total: {grand_total} (expected 1000)")
        assert grand_total == 1000

        for node_stats in parc.current_runtime().stats():
            print(
                f"node {node_stats['index']}: {node_stats['ios']} IOs, "
                f"{node_stats['processed']} calls processed"
            )
        for histogram in histograms:
            histogram.parc_release()
    finally:
        parc.shutdown()


if __name__ == "__main__":
    main()
