"""ABL-PLACE — placement-policy ablation (extension of paper §3.2).

The paper says placement follows "the current load distribution policy"
without fixing one; PyParC makes the policy pluggable.  This ablation
creates a burst of objects under each policy and reports the resulting
balance (max/min IOs per node) plus correctness.
"""

from __future__ import annotations

import repro.core as parc
from repro.benchlib.tables import format_table
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig

OBJECTS = 24
NODES = 4


@parc.parallel(name="abl.Cell", async_methods=["set"], sync_methods=["get"])
class Cell:
    def __init__(self):
        self.value = None

    def set(self, value):
        self.value = value

    def get(self):
        return self.value


def placement_rows():
    rows = []
    for policy in ("round_robin", "least_loaded", "random"):
        parc.init(
            ParcConfig(
                nodes=NODES,
                scheduler=SchedulerConfig(
                    grain=GrainPolicy(), placement=policy
                ),
            )
        )
        try:
            cells = [parc.new(Cell) for _ in range(OBJECTS)]
            for index, cell in enumerate(cells):
                cell.set(index)
            assert [cell.get() for cell in cells] == list(range(OBJECTS))
            counts = [node["ios"] for node in parc.current_runtime().stats()]
            rows.append(
                (policy, counts, max(counts), max(counts) - min(counts))
            )
            for cell in cells:
                cell.parc_release()
        finally:
            parc.shutdown()
    return rows


def test_abl_place_all_policies_work(benchmark):
    rows = benchmark(placement_rows)
    for _policy, counts, _mx, _spread in rows:
        assert sum(counts) == OBJECTS


def test_abl_place_round_robin_perfectly_balanced(benchmark):
    rows = benchmark(placement_rows)
    by_policy = {policy: spread for policy, _c, _m, spread in rows}
    assert by_policy["round_robin"] == 0


def test_abl_place_least_loaded_nearly_balanced(benchmark):
    rows = benchmark(placement_rows)
    by_policy = {policy: spread for policy, _c, _m, spread in rows}
    assert by_policy["least_loaded"] <= 2


def test_abl_place_print_table(benchmark):
    rows = benchmark(placement_rows)
    print()
    print(
        format_table(
            ["policy", "IOs per node", "max", "spread"],
            [[p, str(c), m, s] for p, c, m, s in rows],
            title=f"ABL-PLACE — {OBJECTS} objects over {NODES} nodes",
        )
    )
