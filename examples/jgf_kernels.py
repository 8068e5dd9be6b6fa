#!/usr/bin/env python3
"""The JGF Section-2 kernel suite on the ParC# platform.

The paper evaluated with the JGF *ray tracer*; this example runs the rest
of the classic Java Grande Section-2 kernels — Series, SOR, Crypt,
SparseMatmult — each sequentially and farmed across parallel objects,
validating every parallel result bit-for-bit against the sequential one
(the JGF validation discipline).

Run:  python examples/jgf_kernels.py
"""

import copy
import time

import repro.core as parc
from repro.apps.jgf import (
    fourier_coefficients,
    idea_encrypt,
    make_key,
    parallel_crypt_roundtrip,
    parallel_fourier_coefficients,
    parallel_sor,
    parallel_sparse_matmult,
    random_sparse_matrix,
    sor,
    sparse_matmult,
)
from repro.apps.jgf.sor import make_grid
from repro.benchlib.tables import format_table
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig

WORKERS = 3


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def main() -> None:
    rows = []
    parc.init(
        ParcConfig(
            nodes=WORKERS,
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=2)),
        )
    )
    try:
        # Series: Fourier coefficients of (x+1)^x.
        seq, seq_s = timed(fourier_coefficients, 12)
        par, par_s = timed(parallel_fourier_coefficients, 12, WORKERS)
        rows.append(["Series", round(seq_s, 3), round(par_s, 3),
                     "exact" if par == seq else "MISMATCH"])

        # SOR: red-black relaxation with halo exchange.
        grid = make_grid(24)
        reference = copy.deepcopy(grid)
        _, seq_s = timed(sor, reference, 8)
        par_grid, par_s = timed(parallel_sor, grid, 8, WORKERS)
        rows.append(["SOR", round(seq_s, 3), round(par_s, 3),
                     "exact" if par_grid == reference else "MISMATCH"])

        # Crypt: IDEA over 16 KB.
        key = make_key()
        data = bytes(range(256)) * 64
        ct, seq_s = timed(idea_encrypt, data, key)
        (par_ct, par_pt), par_s = timed(
            parallel_crypt_roundtrip, data, key, WORKERS
        )
        ok = "exact" if par_ct == ct and par_pt == data else "MISMATCH"
        rows.append(["Crypt", round(seq_s, 3), round(par_s, 3), ok])

        # SparseMatmult: iterated y = A·x.
        matrix = random_sparse_matrix(60, 6)
        x = [1.0] * 60
        seq_y, seq_s = timed(sparse_matmult, matrix, x, 5)
        par_y, par_s = timed(
            parallel_sparse_matmult, matrix, x, 5, WORKERS
        )
        rows.append(["SparseMatmult", round(seq_s, 3), round(par_s, 3),
                     "exact" if par_y == seq_y else "MISMATCH"])
    finally:
        parc.shutdown()

    print(
        format_table(
            ["kernel", "sequential (s)", f"{WORKERS}-worker farm (s)",
             "validation"],
            rows,
            title="JGF Section-2 kernels (parallel results validated "
            "against sequential)",
        )
    )
    print("\nFor the modeled cluster-scaling curves, run:\n"
          "  pytest benchmarks/test_ext_jgf_kernels.py -s -k print_table")


if __name__ == "__main__":
    main()
