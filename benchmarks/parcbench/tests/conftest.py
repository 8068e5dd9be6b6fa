"""Makes the benchmark's flat modules and the runtime importable.

These tests are run explicitly (``python -m pytest
benchmarks/parcbench/tests``); they are not in tier-1 ``testpaths``.
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(os.path.dirname(BENCH))

for path in (os.path.join(REPO, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
