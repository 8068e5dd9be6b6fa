"""Stress and concurrency tests: the runtime under contention.

These push thread-safety seams the unit tests touch only lightly:
concurrent creation from many application threads, many POs hammering one
IO, interleaved sync/async under aggregation, and rapid create/release
churn.
"""

from __future__ import annotations

import threading

import pytest

import repro.core as parc
from repro.core import Farm, GrainPolicy, ParcConfig, SchedulerConfig


@parc.parallel(
    name="stress.Counter",
    async_methods=["bump_many"],
    sync_methods=["value", "add_and_get"],
)
class Counter:
    def __init__(self):
        self.count = 0

    def bump_many(self, n):
        for _ in range(n):
            self.count += 1

    def value(self):
        return self.count

    def add_and_get(self, n):
        self.count += n
        return self.count


class TestConcurrentClients:
    def test_many_threads_create_and_use_pos(self, runtime):
        errors: list[BaseException] = []
        results: list[int] = []
        lock = threading.Lock()

        def worker(thread_index):
            try:
                counter = parc.new(Counter)
                for _ in range(10):
                    counter.bump_many(5)
                value = counter.value()
                counter.parc_release()
                with lock:
                    results.append(value)
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors
        assert results == [50] * 8

    def test_many_threads_hammer_one_io(self, runtime):
        shared = parc.new(Counter)
        errors: list[BaseException] = []

        def hammer():
            try:
                for _ in range(25):
                    shared.bump_many(2)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors
        # Serial execution in the IO: no lost updates, ever.
        assert shared.value() == 6 * 25 * 2
        shared.parc_release()

    def test_sync_calls_from_many_threads_are_atomic(self, runtime):
        shared = parc.new(Counter)
        seen: list[int] = []
        lock = threading.Lock()

        def caller():
            for _ in range(20):
                value = shared.add_and_get(1)
                with lock:
                    seen.append(value)

        threads = [threading.Thread(target=caller) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        # add_and_get is serialized at the IO: all results distinct.
        assert sorted(seen) == list(range(1, 101))
        shared.parc_release()


class TestChurn:
    def test_create_release_churn(self, plain_runtime):
        for _round in range(40):
            counter = parc.new(Counter)
            counter.bump_many(1)
            assert counter.value() == 1
            counter.parc_release()
        # Nothing should linger after release.
        stats = parc.current_runtime().stats()
        assert all(node["queued"] == 0 for node in stats)

    def test_farm_churn(self, plain_runtime):
        for _round in range(10):
            with Farm(Counter, workers=3) as farm:
                farm.scatter("bump_many", [3] * 9)
                assert sum(farm.collect("value")) == 27


class TestHeavyAggregation:
    def test_large_burst_through_small_buffers(self):
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=3)),
            )
        )
        try:
            counter = parc.new(Counter)
            for _ in range(500):
                counter.bump_many(1)
            assert counter.value() == 500
            counter.parc_release()
        finally:
            parc.shutdown()

    def test_alternating_sync_async_under_aggregation(self):
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=7)),
            )
        )
        try:
            counter = parc.new(Counter)
            expected = 0
            for round_index in range(60):
                counter.bump_many(2)
                expected += 2
                if round_index % 5 == 0:
                    assert counter.value() == expected
            assert counter.value() == expected
            counter.parc_release()
        finally:
            parc.shutdown()

    @pytest.mark.parametrize("nodes", [1, 4])
    def test_wide_fanout(self, nodes):
        parc.init(
            ParcConfig(
                nodes=nodes,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=4)),
            )
        )
        try:
            counters = [parc.new(Counter) for _ in range(24)]
            for counter in counters:
                counter.bump_many(10)
            assert [counter.value() for counter in counters] == [10] * 24
            for counter in counters:
                counter.parc_release()
        finally:
            parc.shutdown()
