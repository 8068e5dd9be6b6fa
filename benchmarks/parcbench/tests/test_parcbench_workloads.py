"""Plans are frozen and the generators are pure functions of the seed."""

import pytest

import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_plan_scales_with_seconds_and_shrinks_for_smoke(name):
    reference = workloads.plan(name)
    doubled = workloads.plan(name, 2 * workloads.REFERENCE_SECONDS)
    smoke = workloads.plan(name, smoke=True)
    assert doubled.total_ops == pytest.approx(2 * reference.total_ops, rel=0.02)
    assert smoke.total_ops <= reference.total_ops / 50
    assert smoke.segments == workloads.SMOKE_SEGMENTS
    assert reference.segments % reference.segments_per_block == 0
    assert reference.sequential_repeats >= 1


def test_unknown_workload_and_bad_seconds_are_rejected():
    with pytest.raises(ValueError):
        workloads.plan("nope")
    with pytest.raises(ValueError):
        workloads.plan("sync_small", 0)


def test_only_the_echo_workloads_are_pinned():
    pinned = {name for name in workloads.WORKLOADS if workloads.plan(name).pinned}
    assert pinned == {"sync_small", "bulk_echo"}


def test_echo_inputs_depend_on_the_seed_only():
    plan = workloads.plan("sync_small")
    assert workloads.echo_payloads(plan, 1) == workloads.echo_payloads(plan, 1)
    assert workloads.echo_payloads(plan, 1) != workloads.echo_payloads(plan, 2)
    payloads = workloads.echo_payloads(plan, 1)
    assert len(payloads) == plan.payload_variants
    assert all(len(p) == 64 and p.typecode == "i" for p in payloads)
    order = workloads.echo_order(plan, 1, 3)
    assert order == workloads.echo_order(plan, 1, 3)
    assert order != workloads.echo_order(plan, 1, 4)
    assert len(order) == plan.ops_per_segment
    assert set(order) <= set(range(plan.payload_variants))


def test_bulk_payload_is_256_kib():
    plan = workloads.plan("bulk_echo")
    payload = workloads.echo_payloads(plan, 7)[0]
    assert len(payload) * payload.itemsize == 256 * 1024


def test_stream_round_deals_every_call_once_and_evenly():
    plan = workloads.plan("async_stream")
    chunks, added = workloads.stream_round(plan, 5, 0)
    assert (chunks, added) == workloads.stream_round(plan, 5, 0)
    assert chunks != workloads.stream_round(plan, 6, 0)[0]
    assert sum(len(values) for _grain, values in chunks) == plan.ops_per_segment
    assert added[0][0] == added[1][0] == plan.ops_per_segment // 2
    for grain in (0, 1):
        mine = [v for index, values in chunks if index == grain for v in values]
        assert (len(mine), sum(mine)) == added[grain]


def test_farm_pair_order_is_seeded_per_frame():
    plan = workloads.plan("raytracer_farm")
    order = [workloads.farm_first(plan, 3, k) for k in range(plan.segments)]
    assert order == [workloads.farm_first(plan, 3, k) for k in range(plan.segments)]
    assert order != [workloads.farm_first(plan, 4, k) for k in range(plan.segments)]
    assert True in order and False in order


def test_churn_round_releases_every_grain_once():
    plan = workloads.plan("grain_churn")
    ticks, order = workloads.churn_round(plan, 9, 2)
    assert (ticks, order) == workloads.churn_round(plan, 9, 2)
    assert len(ticks) == plan.ops_per_segment
    assert all(len(values) == workloads.CHURN_CALLS for values in ticks)
    assert sorted(order) == list(range(len(ticks)))
    assert order != sorted(order)
