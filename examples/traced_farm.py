#!/usr/bin/env python3
"""Observability: one merged trace of a farm running across real nodes.

Boots four TCP nodes with telemetry enabled, runs a :class:`Farm.map`
over them, and writes one merged Chrome-trace JSON you can open in
``chrome://tracing`` or https://ui.perfetto.dev — one *process lane per
node*, with the caller's ``po.*``/``rpc`` spans linked to the
``serve.*``/``io`` spans of whichever node executed each call, so a
single ``map`` reads as one connected tree fanning out over the cluster.

Also prints the cluster-wide metrics snapshot (per-method latency
histograms from every node) and a Prometheus-style scrape fetched over
the wire from one node's well-known ``/telemetry`` object.

Run:  python examples/traced_farm.py [output.json]
"""

import sys

import repro.core as parc
from repro.apps.primes.sieve import is_prime, sieve
from repro.core import (
    Farm,
    GrainPolicy,
    ParcConfig,
    SchedulerConfig,
    TelemetryConfig,
)
from repro.core.model import parallel
from repro.telemetry import get_global_tracer


@parallel(
    name="examples.RangeCounter",
    async_methods=[],
    sync_methods=["primes_in"],
)
class RangeCounter:
    """Counts primes in a half-open range (synchronous: a map worker)."""

    def primes_in(self, bounds) -> int:
        lo, hi = bounds
        return sum(1 for n in range(lo, hi) if is_prime(n))


def main() -> None:
    output = sys.argv[1] if len(sys.argv) > 1 else "parc-trace.json"
    limit = 3000
    step = 150
    ranges = [(lo, min(lo + step, limit)) for lo in range(2, limit, step)]

    config = ParcConfig(
        nodes=4,
        channel="tcp",
        telemetry=TelemetryConfig(enabled=True),
        scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=4)),
    )
    with parc.session(config) as runtime:
        tracer = get_global_tracer()
        with tracer.span("app", "count_primes", limit=limit):
            with Farm(RangeCounter, workers=4) as farm:
                counts = farm.map("primes_in", ranges)
        total = sum(counts)
        assert total == len(sieve(limit - 1))
        print(f"{total} primes < {limit} via Farm.map over 4 tcp nodes")

        # Collect *before* shutdown: workers are scraped over the wire.
        document = runtime.dump_trace(output)
        snapshot = runtime.metrics_snapshot()
        # Every node publishes its telemetry as a well-known remoting
        # object; scrape a peer over the wire like Prometheus would.
        peer = runtime.cluster.nodes[1]
        scrape_uri = f"{peer.base_uri}/telemetry"
        scrape = runtime.cluster.home_node.make_proxy(scrape_uri).scrape()

    lanes_with_io = {
        event["pid"]
        for event in document["traceEvents"]
        if event.get("cat") == "io"
    }
    print(f"wrote {len(document['traceEvents'])} merged trace events to {output}")
    print(f"io spans on {len(lanes_with_io)} node lanes: {sorted(lanes_with_io)}")
    print("open chrome://tracing or https://ui.perfetto.dev and load it\n")

    print("per-node method latency histograms:")
    for label, export in sorted(snapshot["nodes"].items()):
        histograms = [
            name
            for name, metric in export.items()
            if metric["type"] == "histogram"
            and name.startswith("parc.method.seconds.")
        ]
        print(f"  {label}: {histograms or '(no methods executed here)'}")

    merged = snapshot["cluster"]
    method_total = sum(
        metric["count"]
        for name, metric in merged.items()
        if metric["type"] == "histogram"
        and name.startswith("parc.method.seconds.")
    )
    print(f"\ncluster aggregate: {method_total} method executions observed")

    print(f"\nprometheus scrape of {scrape_uri} (first lines):")
    for line in scrape.splitlines()[:6]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
