"""Property-based tests: grain aggregation preserves program order.

The paper's method-call aggregation buffers and repacks calls; the
invariant worth machine-checking is that NO interleaving of asynchronous
posts, synchronous calls, explicit flushes and max_calls settings can ever
lose a call or reorder the program.
"""

from __future__ import annotations

import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grain import AdaptiveGrainController, GrainPolicy
from repro.core.impl import ImplementationObject
from repro.core.proxy_object import RemoteGrain


class Journal:
    def __init__(self):
        self.entries = []
        self.lock = threading.Lock()

    def write(self, value):
        with self.lock:
            self.entries.append(value)

    def note(self, value):
        with self.lock:
            self.entries.append(("note", value))

    def read(self):
        with self.lock:
            return list(self.entries)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("note"), st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("sync"), st.just(0)),
        st.tuples(st.just("flush"), st.just(0)),
    ),
    max_size=40,
)


class SlowWire:
    """An IO behind a wire with a round-trip time.

    While a request sleeps the caller keeps flushing, so the outbox the
    sender finds afterwards holds several items: the coalesced run of
    entries, which a zero-latency in-process IO would hardly ever take.
    """

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def enqueue_batch(self, entries):
        time.sleep(self._delay_s)
        self._inner.enqueue_batch(entries)


class TestAggregationOrdering:
    @given(
        ops=operations,
        max_calls=st.integers(min_value=1, max_value=9),
        coalescing=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_interleaving_loses_or_reorders(
        self, ops, max_calls, coalescing
    ):
        journal = Journal()
        impl = ImplementationObject(journal, "prop.Journal")
        if coalescing:
            impl = SlowWire(impl, delay_s=0.0005)
        grain = RemoteGrain(impl, max_calls=max_calls)
        # Columnar-speaking peers are the ones that get coalesced runs.
        grain.columnar = coalescing
        expected = []
        try:
            for operation, value in ops:
                if operation == "write":
                    grain.post("write", (value,), {})
                    expected.append(value)
                elif operation == "note":
                    grain.post("note", (value,), {})
                    expected.append(("note", value))
                elif operation == "flush":
                    grain.flush()
                else:
                    observed = grain.call("read", (), {})
                    assert observed == expected
            grain.drain()
            assert journal.read() == expected
        finally:
            grain.dispose()

    @given(
        counts=st.lists(
            st.integers(min_value=1, max_value=30), min_size=1, max_size=5
        ),
        max_calls=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_batching_never_changes_totals(self, counts, max_calls):
        journal = Journal()
        impl = ImplementationObject(journal, "prop.Journal")
        grain = RemoteGrain(impl, max_calls=max_calls)
        try:
            total = 0
            for round_index, count in enumerate(counts):
                for _ in range(count):
                    grain.post("write", (round_index,), {})
                total += count
            grain.drain()
            assert len(journal.read()) == total
        finally:
            grain.dispose()


class TestGrainDecisionProperties:
    @given(
        overhead=st.floats(min_value=1e-6, max_value=1.0),
        exec_time=st.floats(min_value=1e-9, max_value=10.0),
        cap=st.integers(min_value=1, max_value=1024),
    )
    @settings(max_examples=200, deadline=None)
    def test_decisions_always_valid(self, overhead, exec_time, cap):
        controller = AdaptiveGrainController(
            overhead_s=overhead, max_calls_cap=cap, min_samples=1
        )
        controller.observe_execution("cls", exec_time)
        decision = controller.decide("cls")
        assert 1 <= decision.max_calls <= cap
        assert isinstance(decision.agglomerate, bool)

    @given(
        slow=st.floats(min_value=1e-4, max_value=1.0),
        speedup=st.floats(min_value=2.0, max_value=1000.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_cheaper_methods_pack_at_least_as_much(self, slow, speedup):
        fast = slow / speedup
        controller = AdaptiveGrainController(
            overhead_s=1e-3, max_calls_cap=512, min_samples=1
        )
        controller.observe_execution("slow", slow)
        controller.observe_execution("fast", fast)
        slow_decision = controller.decide("slow")
        fast_decision = controller.decide("fast")
        if not (slow_decision.agglomerate or fast_decision.agglomerate):
            assert fast_decision.max_calls >= slow_decision.max_calls

    @given(st.floats(min_value=1e-9, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_static_policy_ignores_observations(self, exec_time):
        policy = GrainPolicy(max_calls=7)
        assert policy.decide("anything").max_calls == 7
