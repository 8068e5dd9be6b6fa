"""EXT-JGF — scaling of the JGF Section-2 kernels on the ParC# platform.

An extension beyond the paper's evaluation (which used only the JGF ray
tracer): the four Section-2 kernels farmed through the same runtime,
modeled on the paper's cluster.  Expected shapes: the embarrassingly
parallel kernels (Series, Crypt) scale near-linearly; the halo-exchanging
stencil (SOR) scales worst and hits a communication floor; all parallel
runs must remain bit-exact (asserted by the live validation test).
"""

from __future__ import annotations

import copy

import repro.core as parc
from repro.benchlib import simulate_farm
from repro.benchlib.tables import format_table
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.perfmodel import MONO_117_TCP
from repro.perfmodel.network import transfer_time

PROCESSORS = [1, 2, 4, 6]

# Modeled kernel workloads on the paper's cluster (per-unit costs chosen
# at the JGF "size B" order of magnitude; the *shape* claims below don't
# depend on the absolute scale).
KERNELS = {
    # (chunks, per-chunk compute s, bytes out, bytes back, syncs/run)
    "Series": (64, 0.5, 64.0, 2_000.0, 1),
    "Crypt": (64, 0.25, 48_000.0, 48_000.0, 1),
    "SparseMatmult": (64, 0.2, 6_000.0, 6_000.0, 8),
    "SOR": (64, 0.05, 4_000.0, 4_000.0, 200),
}

model = MONO_117_TCP.with_overrides(thread_pool_limit=None)


def kernel_curves() -> dict[str, list[tuple[int, float]]]:
    curves: dict[str, list[tuple[int, float]]] = {}
    for name, (chunks, per_chunk, out_bytes, back_bytes, syncs) in KERNELS.items():
        points = []
        for processors in PROCESSORS:
            farm = simulate_farm(
                processors,
                [per_chunk] * chunks,
                model,
                out_bytes,
                back_bytes,
            )
            # Bulk-synchronous kernels pay a latency-bound barrier per
            # sync step (one collect round trip per worker, serialized at
            # the coordinator NIC).
            barrier_cost = syncs * processors * (
                2 * model.one_way_latency_s
                + transfer_time(model, back_bytes)
            )
            points.append((processors, farm.makespan_s + barrier_cost))
        curves[name] = points
    return curves


def speedups(curve: list[tuple[int, float]]) -> dict[int, float]:
    base = curve[0][1]
    return {processors: base / time_s for processors, time_s in curve}


def test_ext_jgf_embarrassingly_parallel_scale(benchmark):
    curves = benchmark(kernel_curves)
    for kernel in ("Series", "Crypt"):
        s = speedups(curves[kernel])
        assert s[6] > 4.5, (kernel, s)  # near-linear at 6 procs


def test_ext_jgf_stencil_scales_worst(benchmark):
    curves = benchmark(kernel_curves)
    sor_speedup = speedups(curves["SOR"])[6]
    for kernel in ("Series", "Crypt", "SparseMatmult"):
        assert speedups(curves[kernel])[6] > sor_speedup, kernel


def test_ext_jgf_all_improve_at_two(benchmark):
    curves = benchmark(kernel_curves)
    for kernel, curve in curves.items():
        assert speedups(curve)[2] > 1.2, kernel


def test_ext_jgf_print_table(benchmark):
    curves = benchmark(kernel_curves)
    rows = []
    for kernel, curve in curves.items():
        s = speedups(curve)
        rows.append(
            [kernel]
            + [round(time_s, 2) for _p, time_s in curve]
            + [round(s[6], 2)]
        )
    print()
    print(
        format_table(
            ["kernel"] + [f"{p}p (s)" for p in PROCESSORS] + ["speedup@6"],
            rows,
            title="EXT-JGF — JGF Section-2 kernels on the ParC# platform "
            "(modeled cluster)",
        )
    )


def test_ext_jgf_live_validation(benchmark):
    """The real runtime really runs the kernels, bit-exactly."""
    from repro.apps.jgf import (
        fourier_coefficients,
        parallel_fourier_coefficients,
        parallel_sor,
        sor,
    )
    from repro.apps.jgf.sor import make_grid

    def run_live():
        parc.init(
            ParcConfig(
                nodes=3,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=2)),
            )
        )
        try:
            series_ok = parallel_fourier_coefficients(5, workers=3) == (
                fourier_coefficients(5)
            )
            grid = make_grid(10)
            reference = copy.deepcopy(grid)
            sor(reference, 3)
            sor_ok = parallel_sor(grid, 3, workers=3) == reference
            return series_ok, sor_ok
        finally:
            parc.shutdown()

    series_ok, sor_ok = benchmark.pedantic(run_live, rounds=1, iterations=1)
    assert series_ok
    assert sor_ok
