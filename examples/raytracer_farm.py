#!/usr/bin/env python3
"""The paper's high-level benchmark: the farmed JGF ray tracer (§4).

Renders one frame sequentially, then with ParC# farms of growing size and
with the Java-RMI-analog farm, validating every image against the
sequential checksum and printing a Fig. 9-style timing table.  Absolute
times are this machine's pure-Python times — the paper-shape reproduction
lives in ``benchmarks/test_fig9_raytracer.py``, which uses the calibrated
platform models.

Run:  python examples/raytracer_farm.py [width] [height]
"""

import sys
import time

import repro.core as parc
from repro.apps.raytracer import (
    checksum,
    create_scene,
    farm_render,
    render,
    rmi_farm_render,
)
from repro.benchlib.tables import format_table
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig


def main() -> None:
    width = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    height = int(sys.argv[2]) if len(sys.argv) > 2 else 48
    grid = 2  # 8 spheres; the paper's 500x500/64-sphere frame is ~hours
    # in pure Python — see EXPERIMENTS.md for the scaling argument.

    scene = create_scene(grid)
    started = time.perf_counter()
    sequential = render(scene, width, height)
    seq_s = time.perf_counter() - started
    reference = checksum(sequential)
    print(f"sequential {width}x{height}: {seq_s:.2f}s checksum={reference}")

    rows = [["sequential", 1, round(seq_s, 3), "-"]]

    parc.init(
        ParcConfig(
            nodes=4,
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=2)),
        )
    )
    try:
        for workers in (1, 2, 4):
            started = time.perf_counter()
            image = farm_render(workers, width, height, grid=grid)
            elapsed = time.perf_counter() - started
            ok = "ok" if checksum(image) == reference else "MISMATCH"
            rows.append([f"ParC# farm", workers, round(elapsed, 3), ok])
    finally:
        parc.shutdown()

    for workers in (1, 2):
        started = time.perf_counter()
        image = rmi_farm_render(workers, width, height, grid=grid)
        elapsed = time.perf_counter() - started
        ok = "ok" if checksum(image) == reference else "MISMATCH"
        rows.append(["RMI farm", workers, round(elapsed, 3), ok])

    print()
    print(
        format_table(
            ["implementation", "workers", "seconds", "checksum"],
            rows,
            title="Ray tracer farm (validated against sequential render)",
        )
    )


if __name__ == "__main__":
    main()
