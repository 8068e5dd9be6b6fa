"""Workload plans and seeded input generators.  Pure: no runtime imports.

A *plan* fixes how much work a run does; the *generators* turn a seed
into the inputs of one timed segment together with the results the
runtime must produce for them.  The seed changes payload contents and
dealing order only, never the amount of work, so two runs with
different seeds measure the same thing.

Op counts are frozen here for a reference run of
:data:`REFERENCE_SECONDS` on the 2-core reference host and scale
linearly with ``--seconds``; a run therefore does a fixed number of
operations that takes about ``--seconds`` there.  (``grain_churn``
slows down as dead grains pile up in a node's tables, so a run that
stopped on the clock would average a different stretch of that decay
every time.)
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

REFERENCE_SECONDS = 10

#: Blocks per run of the call workloads.  A metric is the median over
#: the blocks of the block's value; pinned workloads change core, and
#: every workload reads its thread count, at block boundaries.
BLOCKS = 20

#: Timed segments per run of the call workloads: short ones (~50 ms on
#: the reference host), each with the host probe in front of it, so a
#: block's ten probes follow the host's weather through the block
#: (README, "Steadiness").  A farm frame and a churn round are a
#: segment and a block each.
CALL_SEGMENTS = 200

#: ``--smoke`` divides every count by this and uses fewer segments.
SMOKE_DIVISOR = 100
SMOKE_SEGMENTS = 4

#: Async calls are dealt to the grains in chunks of this many — the
#: ``max_calls`` of the workload's grain policy, so a chunk is one batch.
DEAL_CHUNK = 32

#: Async calls each churned grain receives before its ``count()``.
CHURN_CALLS = 4

WORKLOADS = (
    "sync_small",
    "bulk_echo",
    "async_stream",
    "raytracer_farm",
    "grain_churn",
)


@dataclass(frozen=True)
class Plan:
    """How much work one run of a workload does."""

    name: str
    #: Driver and workers share one core (set before ``init``).
    pinned: bool
    #: Static ``GrainPolicy(max_calls=...)`` the runtime boots with.
    max_calls: int
    segments: int
    #: Consecutive segments whose values are pooled into one block.
    segments_per_block: int
    #: Operations in each timed segment (calls, calls, calls, image
    #: lines, grain lifecycles).
    ops_per_segment: int
    warmup_ops: int
    #: Times the sequential twin of a segment is run back to back: the
    #: same operations on local objects take microseconds, too short to
    #: time once.
    sequential_repeats: int = 1
    #: Echo workloads: ints per payload and distinct payloads generated.
    payload_ints: int = 0
    payload_variants: int = 0
    #: raytracer_farm: frame edge in pixels.
    frame_size: int = 0

    @property
    def total_ops(self) -> int:
        return self.segments * self.ops_per_segment


# Calibrated once on the reference host to ~10 s of timed phase each
# (README, "Calibration"); frozen so later PRs measure the same work.
_REFERENCE_OPS = {
    "sync_small": 56_000,
    "bulk_echo": 11_000,
    "async_stream": 700_000,
    "grain_churn": 2_400,
}
_REFERENCE_SEGMENTS = {
    "sync_small": CALL_SEGMENTS,
    "bulk_echo": CALL_SEGMENTS,
    "async_stream": CALL_SEGMENTS,
    "grain_churn": 30,
}
_REFERENCE_FARM_FRAMES = 30
_FARM_FRAME_SIZE = 120
_SMOKE_FRAME_SIZE = 12


def plan(name: str, seconds: float = REFERENCE_SECONDS, smoke: bool = False) -> Plan:
    """The frozen plan for *name*, scaled to *seconds* (or to smoke size)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if seconds <= 0:
        raise ValueError(f"seconds must be positive, got {seconds}")
    scale = seconds / REFERENCE_SECONDS
    if name == "raytracer_farm":
        # One farm frame is one segment, so time scales the frame count.
        frames = max(6, round(_REFERENCE_FARM_FRAMES * scale))
        size = _FARM_FRAME_SIZE
        if smoke:
            frames, size = SMOKE_SEGMENTS, _SMOKE_FRAME_SIZE
        return Plan(
            name=name,
            pinned=False,
            max_calls=1,
            segments=frames,
            segments_per_block=1,
            ops_per_segment=size,
            warmup_ops=size,
            frame_size=size,
        )
    total = _REFERENCE_OPS[name] * scale
    segments = _REFERENCE_SEGMENTS[name]
    if smoke:
        total, segments = _REFERENCE_OPS[name] / SMOKE_DIVISOR, SMOKE_SEGMENTS
    per_segment = max(1, round(total / segments))
    if name == "async_stream":
        # Whole chunks, an even number of them, so both grains get the
        # same share of every round.
        per_segment = max(2, round(per_segment / (2 * DEAL_CHUNK))) * 2 * DEAL_CHUNK
    common = dict(
        name=name,
        segments=segments,
        segments_per_block=max(1, segments // BLOCKS),
        ops_per_segment=per_segment,
        warmup_ops=max(1, round(total / 40)),
    )
    if name == "sync_small":
        return Plan(pinned=True, max_calls=1, payload_ints=64,
                    payload_variants=16, sequential_repeats=10, **common)
    if name == "bulk_echo":
        return Plan(pinned=True, max_calls=1, payload_ints=65_536,
                    payload_variants=4, **common)
    if name == "async_stream":
        return Plan(pinned=False, max_calls=DEAL_CHUNK,
                    sequential_repeats=5, **common)
    return Plan(pinned=False, max_calls=CHURN_CALLS,
                sequential_repeats=30, **common)


def _rng(seed: int, *scope: object) -> random.Random:
    """One independent stream per (seed, scope): segment k's inputs do
    not depend on how many random numbers segment k-1 drew."""
    return random.Random(f"parcbench:{seed}:" + ":".join(map(str, scope)))


# -- echo workloads -----------------------------------------------------------


def echo_payloads(plan: Plan, seed: int) -> list[array]:
    """The distinct ``array('i')`` payloads a run cycles through."""
    rng = _rng(seed, plan.name, "payloads")
    payloads = []
    for _ in range(plan.payload_variants):
        start = rng.randrange(-(2**30), 2**30)
        step = rng.randrange(1, 1000)
        payloads.append(
            array("i", range(start, start + step * plan.payload_ints, step))
        )
    return payloads


def echo_order(plan: Plan, seed: int, segment: int, count: int | None = None) -> list[int]:
    """Which payload each call of *segment* sends."""
    rng = _rng(seed, plan.name, "order", segment)
    count = plan.ops_per_segment if count is None else count
    return rng.choices(range(plan.payload_variants), k=count)


# -- async_stream -------------------------------------------------------------


def stream_round(
    plan: Plan, seed: int, segment: int, grains: int = 2, count: int | None = None
) -> tuple[list[tuple[int, range]], list[tuple[int, int]]]:
    """One round of ticks dealt to *grains* sinks.

    Returns ``(chunks, added)``: ``chunks`` is the posting order as
    ``(grain_index, values)`` and ``added[g]`` is the ``(calls, total)``
    grain *g*'s counters must grow by once the round's barrier returns.
    """
    rng = _rng(seed, plan.name, "round", segment)
    count = plan.ops_per_segment if count is None else count
    n_chunks = count // DEAL_CHUNK
    deal = [index % grains for index in range(n_chunks)]
    rng.shuffle(deal)
    base = rng.randrange(0, 1 << 20)
    chunks = []
    added = [[0, 0] for _ in range(grains)]
    for position, grain in enumerate(deal):
        first = base + position * DEAL_CHUNK
        values = range(first, first + DEAL_CHUNK)
        chunks.append((grain, values))
        added[grain][0] += DEAL_CHUNK
        added[grain][1] += sum(values)
    return chunks, [tuple(pair) for pair in added]


# -- raytracer_farm -----------------------------------------------------------


def farm_first(plan: Plan, seed: int, segment: int) -> bool:
    """Whether frame *segment* is rendered by the farm before its
    sequential twin (otherwise after): seeded, so neither kind always
    gets the cache the other warmed."""
    return _rng(seed, plan.name, "order", segment).random() < 0.5


# -- grain_churn --------------------------------------------------------------


def churn_round(
    plan: Plan, seed: int, segment: int, count: int | None = None
) -> tuple[list[tuple[int, ...]], list[int]]:
    """One round of grain lifecycles.

    Returns ``(ticks, release_order)``: ``ticks[g]`` are the
    :data:`CHURN_CALLS` values grain *g* receives (its ``count()`` must
    then be ``(CHURN_CALLS, sum(ticks[g]))``) and ``release_order`` is
    the seeded order the grains are released in.
    """
    rng = _rng(seed, plan.name, "round", segment)
    count = plan.ops_per_segment if count is None else count
    ticks = []
    for _ in range(count):
        first = rng.randrange(0, 1 << 20)
        ticks.append(tuple(range(first, first + CHURN_CALLS)))
    order = list(range(count))
    rng.shuffle(order)
    return ticks, order
