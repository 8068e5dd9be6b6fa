#!/usr/bin/env python3
"""Run-time grain packing: the adaptive controller in action (§3.1, [9]).

SCOOPP "removes parallelism overheads at run-time by transforming
(packing) parallel objects in passive ones and by aggregating method
calls".  This example creates a stream of parallel objects whose methods
are deliberately tiny, and watches the :class:`AdaptiveGrainController`
learn: early objects are placed remotely with mild aggregation; once the
controller has samples showing the methods are far cheaper than a remote
call, new objects are agglomerated (created locally).

Run:  python examples/grain_adaptation.py
"""

import repro.core as parc
from repro.core import AdaptiveGrainController, ParcConfig, SchedulerConfig


@parc.parallel(name="examples.TinyWorker", async_methods=["tick"], sync_methods=["count"])
class TinyWorker:
    """A worker whose method does almost nothing — too fine a grain."""

    def __init__(self):
        self.ticks = 0

    def tick(self):
        self.ticks += 1

    def count(self):
        return self.ticks


def main() -> None:
    controller = AdaptiveGrainController(
        overhead_s=500e-6,  # the paper's Mono remote-call latency
        min_samples=8,
        max_calls_cap=64,
        agglomerate_factor=1.0,  # robust margin for microsecond methods
    )
    parc.init(ParcConfig(nodes=3, scheduler=SchedulerConfig(grain=controller)))
    try:
        generations = []
        for generation in range(6):
            workers = [parc.new(TinyWorker) for _ in range(4)]
            for worker in workers:
                for _ in range(20):
                    worker.tick()
            total = sum(worker.count() for worker in workers)
            local = sum(1 for worker in workers if worker.parc_is_local)
            decision = controller.decide("examples.TinyWorker")
            generations.append((generation, total, local, decision))
            for worker in workers:
                worker.parc_release()

        print("generation  ticks  local/4  decision")
        for generation, total, local, decision in generations:
            mode = "agglomerate" if decision.agglomerate else (
                f"remote, max_calls={decision.max_calls}"
            )
            print(f"{generation:>10}  {total:>5}  {local:>7}  {mode}")
        avg, samples = controller.stats_for("examples.TinyWorker")
        print(
            f"\ncontroller learned: avg method time "
            f"{avg * 1e6:.1f}us over {samples} samples "
            f"(remote-call overhead modelled at 500us)"
        )
        final = controller.decide("examples.TinyWorker")
        print(
            "final decision:",
            "agglomerate (parallelism removed)" if final.agglomerate
            else f"stay parallel with max_calls={final.max_calls}",
        )
    finally:
        parc.shutdown()


if __name__ == "__main__":
    main()
