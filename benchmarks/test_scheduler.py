"""SCHED — adaptive-scheduler guardrails under a Zipf-skewed workload.

The scenario: 1000 grains across 4 nodes, per-grain call counts drawn
from a Zipf(s=1.1) law, created in an order that makes blind
round-robin park the three heaviest grains on the same node — that
node ends up with ~44% of all work while the others idle early.  Three
schedulers run the identical call sequence:

* ``round_robin`` — the paper-era static placement, no rebalancing:
  makespan is the overloaded node's serial share;
* ``oracle`` — longest-processing-time placement by a policy that is
  *told* every grain's total cost up front (the unreachable lower
  bound, exercised through the redesigned ClusterView policy API);
* ``adaptive`` — the same blind round-robin placement plus the work
  stealing loop: idle nodes pull queued grains (state + backlog) off
  the overloaded one at runtime.

Each node's execution capacity is serialized through a per-node FIFO
core (one simulated core per node; the sleep-based work releases the
GIL, so distinct nodes genuinely overlap on a 1-CPU host).  Guardrails:

* adaptive lands within ``1.5x`` of the oracle makespan;
* adaptive beats static round-robin by ``>= 1.3x``;
* zero calls are lost or duplicated while grains migrate mid-traffic.

A separate scale scenario (``run_scale``) reruns the adaptive scheduler
at 10,000 grains and asserts the accounting only — see its docstring.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from collections import defaultdict, deque

import repro.core as parc
from repro.benchlib.tables import format_table
from repro.cluster.placement import PlacementPolicy
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig
from repro.core.impl import current_node

NODES = 4
GRAINS = 1000
ZIPF_S = 1.1
CALLS_TOTAL = 7200
WORK_S = 0.0015
SHUFFLE_SEED = 1234
#: Method-call aggregation (the paper's grain-size adaptation), the
#: same for every scenario: without it each call is a full remoting
#: round trip and dispatch CPU — not simulated work — dominates the
#: makespan on a small host.  Kept small because a migration must wait
#: out the victim grain's executing batch: batch size bounds the pause.
AGG_CALLS = 4

#: Retry budget: the guardrails compare wall-clock makespans on a
#: shared machine, so a noisy run may re-measure.
ATTEMPTS = 3

#: The scale scenario: ten times the guarded population.  The Zipf
#: floor (every grain posts at least once) pushes the actual posted
#: count well past the target — ~21.6k calls for this pair.
SCALE_GRAINS = 10_000
SCALE_CALLS_TOTAL = 15_000
SCALE_DEADLINE_S = 480.0

class _FairCore:
    """One simulated core: FIFO tickets, one ``WORK_S`` sleep at a time.

    Every work() call on a node serializes through its node's core, so
    a node's makespan is its queued work; the sleeps release the GIL,
    so distinct nodes genuinely overlap even on a 1-CPU host.  A plain
    ``threading.Lock`` is unfair under heavy contention — a grain
    hammering the core can starve another grain's in-flight call for
    seconds, which stalls any migration waiting that call out — so the
    core hands out FIFO tickets: the pause a migration sees is bounded
    by one herd rotation.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._queue: deque[threading.Event] = deque()

    def run(self, duration: float) -> None:
        ticket = threading.Event()
        with self._mu:
            self._queue.append(ticket)
            if len(self._queue) == 1:
                ticket.set()
        ticket.wait()
        time.sleep(duration)
        with self._mu:
            self._queue.popleft()
            if self._queue:
                self._queue[0].set()


_cores: dict[str, _FairCore] = defaultdict(_FairCore)

#: Cluster-wide completion counter (grains run in-process over
#: loopback, so plain shared memory observes every executed call the
#: instant it lands — no per-grain drain round trips in the timing).
_done_lock = threading.Lock()
_done_count = 0


def _mark_done() -> None:
    global _done_count
    with _done_lock:
        _done_count += 1


def _reset_done() -> None:
    global _done_count
    with _done_lock:
        _done_count = 0


def _done() -> int:
    with _done_lock:
        return _done_count


@parc.parallel(
    name="bench.sched.Worker", async_methods=["work"], sync_methods=["done"]
)
class Worker:
    def __init__(self):
        self.count = 0

    def work(self):
        node = current_node.get()
        key = node.base_uri if node is not None else "local"
        _cores[key].run(WORK_S)
        self.count += 1
        _mark_done()

    def done(self):
        return self.count


def zipf_calls(
    grains: int = GRAINS, total: int = CALLS_TOTAL, s: float = ZIPF_S
) -> list[int]:
    """Per-grain call counts: Zipf weights, floor of one call each."""
    weights = [1.0 / (rank + 1) ** s for rank in range(grains)]
    norm = sum(weights)
    return [max(1, round(total * w / norm)) for w in weights]


def creation_order(grains: int = GRAINS, nodes: int = NODES) -> list[int]:
    """Grain creation sequence: the round-robin stress case.

    Grains are created heaviest-first except that the second- and
    third-heaviest are created ``nodes`` and ``2 * nodes`` positions
    after the heaviest — so a blind round-robin placement parks the
    three hottest grains on the same node.  This is the classic worst
    case a static placement cannot escape and an adaptive scheduler
    must: the oracle re-places by cost and is immune, and work
    stealing has to drain the tripled-up node at runtime.
    """
    order = [0] + [rank for rank in range(3, grains)]
    order.insert(nodes, 1)
    order.insert(2 * nodes, 2)
    return order


def call_order(calls: list[int]) -> list[int]:
    """The posting sequence: grains fire in random order, each posting
    its whole burst back-to-back — clients hammer one hot object at a
    time, which is also what lets the PO outbox aggregate consecutive
    calls into ``AGG_CALLS``-sized batches."""
    grain_order = list(range(len(calls)))
    random.Random(SHUFFLE_SEED).shuffle(grain_order)
    return [
        grain_index
        for grain_index in grain_order
        for _ in range(calls[grain_index])
    ]


class OracleLptPlacement(PlacementPolicy):
    """Longest-processing-time with perfect knowledge of grain costs.

    The policy is handed the exact per-creation cost sequence: each
    creation goes to the live node with the least total assigned work.
    No online scheduler can know this, which is what makes it the
    oracle baseline.
    """

    name = "oracle_lpt"

    def __init__(self, costs: list[int]) -> None:
        self._costs = list(costs)
        self._cursor = 0
        self._assigned: dict[int, float] = {}
        self._lock = threading.Lock()

    def choose(self, view, home_index):
        live = self._live(view)
        with self._lock:
            cost = self._costs[self._cursor % len(self._costs)]
            self._cursor += 1
            best = min(
                live, key=lambda node: self._assigned.get(node.index, 0.0)
            )
            self._assigned[best.index] = (
                self._assigned.get(best.index, 0.0) + cost
            )
            return best.index


def adaptive_config() -> SchedulerConfig:
    """Stealing knobs tuned for the bench's bursty backlog.

    The bar is deliberately high (``imbalance_ratio``, long cooldown,
    few moves per cycle): each migration pauses its grain for the
    executing batch plus replay, so the scheduler must move a few
    heavy grains once, not churn many grains repeatedly.
    """
    return SchedulerConfig(
        placement="round_robin",
        work_stealing=True,
        rebalance_interval_s=0.1,
        steal_threshold=4,
        idle_threshold=8,
        imbalance_ratio=1.3,
        max_migrations_per_cycle=8,
        migration_cooldown_s=1.5,
    )


def run_scenario(scheduler: SchedulerConfig) -> dict:
    """Post the Zipf workload under *scheduler*; return the accounting."""
    calls = zipf_calls()
    order = call_order(calls)
    scheduler = dataclasses.replace(
        scheduler, grain=GrainPolicy(agglomerate=False, max_calls=AGG_CALLS)
    )
    runtime = parc.init(ParcConfig(nodes=NODES, scheduler=scheduler))
    try:
        by_rank: dict[int, object] = {}
        for rank in creation_order():
            by_rank[rank] = parc.new(Worker)
        grains = [by_rank[rank] for rank in range(GRAINS)]
        _cores.clear()
        _reset_done()
        started = time.perf_counter()
        for grain_index in order:
            grains[grain_index].work()
        deadline = started + 120.0
        while _done() < len(order):
            assert time.perf_counter() < deadline, (
                f"stalled at {_done()}/{len(order)} executed calls"
            )
            time.sleep(0.005)
        makespan = time.perf_counter() - started
        for grain in grains:
            grain.parc_wait()
        executed = sum(grain.done() for grain in grains)
        report = runtime.placement_report()
        for grain in grains:
            grain.parc_release()
    finally:
        parc.shutdown()
    return {
        "makespan_s": makespan,
        "posted": len(order),
        "executed": executed,
        "migrations": report["migrations"],
        "steals": report["steals"],
        "calls_moved": report["calls_moved"],
        "lost_calls": report["lost_calls"],
        "migration_failures": report["migration_failures"],
    }


def run_scale() -> dict:
    """10k-grain Zipf stress under the adaptive scheduler.

    Ten times the guarded population: ~10k grains whose proxies and IO
    mailboxes own no thread (both share the process executor), ~21.6k
    calls, live stealing throughout.  The makespan is recorded for trend-watching but not
    guarded — at this scale thread scheduling, not placement, bounds
    the wall clock on small hosts.  What must hold at any scale is the
    accounting: every posted call executes exactly once and migrations
    lose nothing.

    Two scale-specific shortcuts versus :func:`run_scenario`: progress
    is observed through the shared completion counter only (a
    per-grain ``parc_wait`` sweep costs ~20 ms each — minutes at 10k),
    and the final per-grain tally rides the synchronous ``done()``
    sweep, which the FIFO mailbox already orders after any still-queued
    asynchronous work.
    """
    calls = zipf_calls(SCALE_GRAINS, SCALE_CALLS_TOTAL)
    order = call_order(calls)
    scheduler = dataclasses.replace(
        adaptive_config(),
        grain=GrainPolicy(agglomerate=False, max_calls=AGG_CALLS),
    )
    runtime = parc.init(ParcConfig(nodes=NODES, scheduler=scheduler))
    try:
        by_rank: dict[int, object] = {}
        for rank in creation_order(SCALE_GRAINS):
            by_rank[rank] = parc.new(Worker)
        grains = [by_rank[rank] for rank in range(SCALE_GRAINS)]
        _cores.clear()
        _reset_done()
        started = time.perf_counter()
        for grain_index in order:
            grains[grain_index].work()
        deadline = started + SCALE_DEADLINE_S
        while _done() < len(order):
            assert time.perf_counter() < deadline, (
                f"stalled at {_done()}/{len(order)} executed calls"
            )
            time.sleep(0.02)
        makespan = time.perf_counter() - started
        executed = sum(grain.done() for grain in grains)
        report = runtime.placement_report()
        for grain in grains:
            grain.parc_release()
    finally:
        parc.shutdown()
    return {
        "makespan_s": makespan,
        "posted": len(order),
        "executed": executed,
        "migrations": report["migrations"],
        "steals": report["steals"],
        "calls_moved": report["calls_moved"],
        "lost_calls": report["lost_calls"],
        "migration_failures": report["migration_failures"],
    }


def run_all() -> dict[str, dict]:
    calls = zipf_calls()
    return {
        "round_robin": run_scenario(
            SchedulerConfig(placement="round_robin")
        ),
        "oracle": run_scenario(
            SchedulerConfig(
                placement=OracleLptPlacement(
                    [calls[rank] for rank in creation_order()]
                )
            )
        ),
        "adaptive": run_scenario(adaptive_config()),
    }


def _print_results(results: dict[str, dict]) -> None:
    print()
    print(
        format_table(
            ["scheduler", "makespan (s)", "migrations", "moved", "lost"],
            [
                [
                    name,
                    f"{row['makespan_s']:.2f}",
                    str(row["migrations"]),
                    str(row["calls_moved"]),
                    str(row["lost_calls"]),
                ]
                for name, row in results.items()
            ],
        )
    )


class TestAdaptiveScheduler:
    def test_adaptive_closes_on_oracle_and_beats_round_robin(self):
        for attempt in range(1, ATTEMPTS + 1):
            results = run_all()
            _print_results(results)
            for name, row in results.items():
                # Zero-loss is a correctness property, never re-rolled.
                assert row["executed"] == row["posted"], (
                    f"{name}: posted {row['posted']}, "
                    f"executed {row['executed']}"
                )
                assert row["lost_calls"] == 0, (name, row)
            adaptive = results["adaptive"]
            assert adaptive["migrations"] >= 1, (
                "the stealing loop never moved a grain"
            )
            vs_oracle = (
                adaptive["makespan_s"] / results["oracle"]["makespan_s"]
            )
            vs_rr = (
                results["round_robin"]["makespan_s"]
                / adaptive["makespan_s"]
            )
            print(
                f"adaptive/oracle: {vs_oracle:.2f}  "
                f"round_robin/adaptive: {vs_rr:.2f}"
            )
            if vs_oracle <= 1.5 and vs_rr >= 1.3:
                return
            if attempt == ATTEMPTS:
                assert vs_oracle <= 1.5, (
                    f"adaptive {adaptive['makespan_s']:.2f}s is "
                    f"{vs_oracle:.2f}x the oracle"
                )
                assert vs_rr >= 1.3, (
                    f"adaptive only {vs_rr:.2f}x over round-robin"
                )


class TestSchedulerScale:
    def test_ten_thousand_grains_lose_nothing(self):
        stats = run_scale()
        print()
        print(
            format_table(
                ["counter", "value"],
                [
                    [name, f"{value:.1f}" if name == "makespan_s" else value]
                    for name, value in sorted(stats.items())
                ],
                title=f"SCHED — {SCALE_GRAINS} Zipf grains, adaptive stealing",
            )
        )
        assert stats["executed"] == stats["posted"], stats
        assert stats["lost_calls"] == 0, stats
        assert stats["migration_failures"] == 0, stats
        # The skew is real at this scale too: stealing must engage.
        assert stats["migrations"] >= 1, stats
