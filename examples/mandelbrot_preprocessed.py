#!/usr/bin/env python3
"""The paper's full tool pipeline: preprocess → generated POs → run.

§3.2: "During the preprocessing phase, the original parallel object
classes are replaced by generated PO classes."  This example does exactly
that, end to end, on a fresh workload (a Mandelbrot row farm):

1. writes a plain module with an ``@parallel`` class;
2. runs the source preprocessor on it (the ParC# preprocessor analog);
3. imports the generated module — the class name now denotes the PO;
4. farms a Mandelbrot set across the cluster and renders it as ASCII art.

Run:  python examples/mandelbrot_preprocessed.py [width] [height]
"""

import importlib.util
import sys
import tempfile
import textwrap
from pathlib import Path

import repro.core as parc
from repro.core import (
    GrainPolicy,
    ParcConfig,
    SchedulerConfig,
    preprocess_module,
)

WORKLOAD_SOURCE = textwrap.dedent(
    '''
    """Mandelbrot row worker (input to the ParC# preprocessor)."""

    from repro.core import parallel


    @parallel
    class RowWorker:
        """Computes iteration counts for rows of the Mandelbrot set."""

        def __init__(self, width, height, max_iter=40):
            self.width = width
            self.height = height
            self.max_iter = max_iter
            self.rows = {}

        def compute_row(self, y):
            counts = []
            imag = 2.0 * y / self.height - 1.0
            for x in range(self.width):
                real = 3.0 * x / self.width - 2.25
                c = complex(real, imag)
                z = 0j
                count = 0
                while abs(z) <= 2.0 and count < self.max_iter:
                    z = z * z + c
                    count += 1
                counts.append(count)
            self.rows[y] = counts

        def collect(self):
            return self.rows
    '''
)

PALETTE = " .:-=+*#%@"


def main() -> None:
    width = int(sys.argv[1]) if len(sys.argv) > 1 else 72
    height = int(sys.argv[2]) if len(sys.argv) > 2 else 24

    with tempfile.TemporaryDirectory(prefix="parc-mandel-") as workdir:
        source_path = Path(workdir) / "mandel.py"
        source_path.write_text(WORKLOAD_SOURCE, encoding="utf-8")

        # Step 2: the preprocessor generates mandel_parc.py.
        generated_path = preprocess_module(source_path)
        print(f"preprocessor wrote {generated_path.name}; head of output:")
        for line in generated_path.read_text().splitlines()[:4]:
            print(f"    {line}")
        print("    ...")

        # Step 3: import the generated module.
        spec = importlib.util.spec_from_file_location("mandel_parc", generated_path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["mandel_parc"] = module
        spec.loader.exec_module(module)

        # Step 4: the original class name is now the PO class.
        parc.init(
            ParcConfig(
                nodes=4,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=4)),
            )
        )
        try:
            workers = [module.RowWorker(width, height) for _ in range(4)]
            for y in range(height):
                workers[y % 4].compute_row(y)  # asynchronous, aggregated
            rows: dict[int, list[int]] = {}
            for worker in workers:
                rows.update(worker.collect())  # synchronous barrier
            for worker in workers:
                worker.parc_release()
        finally:
            parc.shutdown()

    print()
    max_iter = 40
    for y in range(height):
        line = "".join(
            PALETTE[min(count * (len(PALETTE) - 1) // max_iter, len(PALETTE) - 1)]
            for count in rows[y]
        )
        print(line)
    print(f"\n{width}x{height} Mandelbrot farmed over 4 parallel objects, "
          f"via preprocessor-generated POs")


if __name__ == "__main__":
    main()
