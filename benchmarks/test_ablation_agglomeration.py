"""ABL-AGGL — object agglomeration ablation (paper §3.1 / Fig. 5).

"object agglomeration: when a new object is created, create it locally so
that its subsequent (asynchronous parallel) method invocations are
actually executed synchronously and serially."

A burst of fine-grained objects (each receiving a handful of tiny calls)
is created under three grain configurations.  The mechanism assertions:
agglomeration places zero IOs on the cluster (objects stay passive), the
adaptive controller converges to the same decision on its own, and the
modeled cost shows why (per-object creation + per-call messaging dwarfs
microsecond methods).
"""

from __future__ import annotations

import repro.core as parc
from repro.benchlib.tables import format_table
from repro.core import (
    AdaptiveGrainController,
    GrainPolicy,
    ParcConfig,
    SchedulerConfig,
)
from repro.perfmodel import MONO_117_TCP

OBJECTS = 24
CALLS_PER_OBJECT = 10


@parc.parallel(name="abl.FineGrain", async_methods=["poke"], sync_methods=["count"])
class FineGrain:
    def __init__(self):
        self.pokes = 0

    def poke(self):
        self.pokes += 1

    def count(self):
        return self.pokes


def run_generation():
    workers = [parc.new(FineGrain) for _ in range(OBJECTS)]
    total = 0
    for worker in workers:
        for _ in range(CALLS_PER_OBJECT):
            worker.poke()
    for worker in workers:
        total += worker.count()
    local = sum(1 for worker in workers if worker.parc_is_local)
    for worker in workers:
        worker.parc_release()
    return total, local


def agglomeration_rows():
    rows = []
    for label, grain in (
        ("parallel (no adaptation)", GrainPolicy(max_calls=1)),
        ("aggregation only", GrainPolicy(max_calls=8)),
        ("agglomerated", GrainPolicy(agglomerate=True)),
    ):
        parc.init(ParcConfig(nodes=3, scheduler=SchedulerConfig(grain=grain)))
        try:
            total, local = run_generation()
            remote_ios = parc.current_runtime().cluster.total_ios()
            rows.append((label, total, local, remote_ios))
        finally:
            parc.shutdown()
    return rows


def test_abl_aggl_correctness_everywhere(benchmark):
    rows = benchmark(agglomeration_rows)
    for _label, total, _local, _ios in rows:
        assert total == OBJECTS * CALLS_PER_OBJECT


def test_abl_aggl_removes_cluster_objects(benchmark):
    rows = benchmark(agglomeration_rows)
    by_label = {label: (local, ios) for label, _t, local, ios in rows}
    assert by_label["parallel (no adaptation)"][0] == 0  # all remote
    assert by_label["agglomerated"][0] == OBJECTS  # all local
    assert by_label["agglomerated"][1] == 0  # zero IOs hosted


def test_abl_aggl_adaptive_converges(benchmark):
    def adaptive_run():
        controller = AdaptiveGrainController(
            overhead_s=MONO_117_TCP.one_way_latency_s,
            min_samples=8,
            max_calls_cap=64,
            # Microsecond methods against a 520us wire: agglomeration is
            # the right call whenever a full batch cannot amortize even
            # one message (factor 1.0 keeps the decision robust to
            # measurement noise on loaded CI machines).
            agglomerate_factor=1.0,
        )
        parc.init(
            ParcConfig(nodes=3, scheduler=SchedulerConfig(grain=controller))
        )
        try:
            locals_per_generation = []
            for _generation in range(4):
                _total, local = run_generation()
                locals_per_generation.append(local)
            return locals_per_generation, controller.decide("abl.FineGrain")
        finally:
            parc.shutdown()

    locals_per_generation, final_decision = benchmark.pedantic(
        adaptive_run, rounds=1, iterations=1
    )
    # Early generations parallel, later ones agglomerated.
    assert locals_per_generation[0] == 0
    assert final_decision.agglomerate
    assert locals_per_generation[-1] == OBJECTS


def test_abl_aggl_print_table(benchmark):
    rows = benchmark(agglomeration_rows)
    print()
    print(
        format_table(
            ["configuration", "calls", "local objects", "cluster IOs"],
            [list(row) for row in rows],
            title=(
                f"ABL-AGGL — {OBJECTS} fine-grain objects x "
                f"{CALLS_PER_OBJECT} tiny calls"
            ),
        )
    )
