"""Unit tests for the dependence tracker and the benchmark library."""

from __future__ import annotations

import pytest

from repro.benchlib import (
    fig9_curve,
    format_table,
    log_sizes,
    message_bytes_mpi,
    message_bytes_nio,
    message_bytes_remoting,
    message_bytes_rmi,
    modeled_bandwidth_from_bytes,
    modeled_time_from_bytes,
    simulate_farm,
)
from repro.benchlib.tables import human_bytes
from repro.core.depgraph import MAIN, DependenceTracker
from repro.errors import SimulationError
from repro.perfmodel import (
    JAVA_RMI,
    MONO_117_TCP,
    MPI_MPICH,
)
from repro.serialization import SoapFormatter


class TestDependenceTracker:
    def test_creation_chain_is_dag(self):
        tracker = DependenceTracker()
        tracker.record_creation(MAIN, "a")
        tracker.record_creation("a", "b")
        tracker.record_creation("a", "c")
        assert tracker.is_dag()
        assert tracker.cycles() == []

    def test_reference_cycle_detected(self):
        tracker = DependenceTracker()
        tracker.record_creation(MAIN, "a")
        tracker.record_creation("a", "b")
        tracker.record_reference("b", "a")  # b holds a reference back to a
        assert not tracker.is_dag()
        cycles = tracker.cycles()
        assert any(set(cycle) == {"a", "b"} for cycle in cycles)

    def test_self_reference_is_cycle(self):
        tracker = DependenceTracker()
        tracker.record_reference("a", "a")
        assert not tracker.is_dag()

    def test_edge_kinds_filterable(self):
        tracker = DependenceTracker()
        tracker.record_creation(MAIN, "x")
        tracker.record_reference("x", "y")
        assert tracker.edges(kind="creation") == [(MAIN, "x")]
        assert tracker.edges(kind="reference") == [("x", "y")]
        assert len(tracker) == 2

    def test_nodes_include_main(self):
        assert MAIN in DependenceTracker().nodes()

    def test_deep_creation_chain_is_dag(self):
        tracker = DependenceTracker()
        parent = MAIN
        for index in range(50_000):  # far past the recursion limit
            tracker.record_creation(parent, f"g{index}")
            parent = f"g{index}"
        assert tracker.is_dag()
        assert tracker.cycles() == []
        tracker.record_reference(parent, "g0")
        assert not tracker.is_dag()
        assert len(tracker.cycles()[0]) == 50_000

    def test_one_cycle_per_back_edge(self):
        tracker = DependenceTracker()
        tracker.record_creation(MAIN, "a")
        tracker.record_creation("a", "b")
        tracker.record_reference("b", "a")
        tracker.record_reference("b", "b")
        assert sorted(tracker.cycles()) == [["a", "b"], ["b"]]

    def test_forget_drops_the_node_and_its_edges(self):
        tracker = DependenceTracker()
        tracker.record_creation(MAIN, "a")
        tracker.record_creation("a", "b")
        tracker.record_reference("b", "a")
        tracker.forget("b")
        assert tracker.is_dag()
        assert list(tracker.nodes()) == [MAIN, "a"]
        assert tracker.edges() == [(MAIN, "a")]
        tracker.forget("b")  # already gone
        tracker.forget(MAIN)  # the entry thread is never released
        assert list(tracker.nodes()) == [MAIN, "a"]
        assert len(tracker) == 1
        tracker.record_reference("a", "a")
        tracker.record_creation("a", "c")
        tracker.forget("a")  # with a self-reference and a live child
        assert list(tracker.nodes()) == [MAIN, "c"]
        assert tracker.edges() == [] and tracker.is_dag()
        tracker.record_creation("c", "a")  # a label may come back
        assert tracker.edges() == [("c", "a")]


class TestMessageBytes:
    @pytest.mark.parametrize("n_ints", [0, 1, 256, 65536])
    def test_protocol_overhead_ordering(self, n_ints):
        """MPI <= nio < RMI-ish remoting < SOAP: the §2 overhead story."""
        raw, _ = message_bytes_mpi(n_ints)
        nio, _ = message_bytes_nio(n_ints)
        binary, _ = message_bytes_remoting(n_ints)
        rmi, _ = message_bytes_rmi(n_ints)
        soap, _ = message_bytes_remoting(n_ints, SoapFormatter())
        assert raw <= nio < binary
        assert binary <= rmi
        assert rmi < soap

    def test_payload_dominates_large_messages(self):
        request, response = message_bytes_remoting(1 << 18)
        payload = 4 * (1 << 18)
        assert request < payload * 1.05
        assert response < payload * 1.05

    def test_mpi_is_exactly_payload(self):
        request, response = message_bytes_mpi(100)
        assert request == response == 400


class TestModelPricing:
    def test_time_includes_both_directions(self):
        time_s = modeled_time_from_bytes(MPI_MPICH, 1000, 1000)
        assert time_s > 2 * MPI_MPICH.one_way_latency_s

    def test_bandwidth_ordering_matches_models(self):
        request, response = message_bytes_remoting(1 << 16)
        payload = 4 * (1 << 16)
        mpi = modeled_bandwidth_from_bytes(MPI_MPICH, payload, *message_bytes_mpi(1 << 16))
        rmi = modeled_bandwidth_from_bytes(JAVA_RMI, payload, *message_bytes_rmi(1 << 16))
        mono = modeled_bandwidth_from_bytes(MONO_117_TCP, payload, request, response)
        assert mpi > rmi > mono


class TestFarmSimulator:
    CHUNKS = [0.5] * 40

    def test_more_workers_never_slower(self):
        times = [
            simulate_farm(
                workers, self.CHUNKS, JAVA_RMI, 100, 10_000
            ).makespan_s
            for workers in (1, 2, 4, 8)
        ]
        assert times == sorted(times, reverse=True)

    def test_single_worker_close_to_serial(self):
        result = simulate_farm(1, self.CHUNKS, JAVA_RMI, 100, 10_000)
        serial = sum(self.CHUNKS) * JAVA_RMI.compute_scale_float
        assert result.makespan_s >= serial
        assert result.makespan_s < serial * 1.1

    def test_compute_scale_applied(self):
        fast = simulate_farm(2, self.CHUNKS, JAVA_RMI, 100, 10_000)
        slow = simulate_farm(2, self.CHUNKS, MONO_117_TCP.with_overrides(thread_pool_limit=None), 100, 10_000)
        ratio = slow.makespan_s / fast.makespan_s
        assert 1.2 < ratio < 1.6  # the ~1.4x sequential gap

    def test_pool_cap_hurts_wide_farms(self):
        capped = MONO_117_TCP.with_overrides(thread_pool_limit=2)
        uncapped = MONO_117_TCP.with_overrides(thread_pool_limit=None)
        capped_time = simulate_farm(
            8, self.CHUNKS, capped, 100, 10_000, pool_limit=2
        ).makespan_s
        free_time = simulate_farm(
            8, self.CHUNKS, uncapped, 100, 10_000
        ).makespan_s
        assert capped_time > free_time

    def test_efficiency_bounded(self):
        result = simulate_farm(4, self.CHUNKS, JAVA_RMI, 100, 10_000)
        assert 0.0 < result.efficiency <= 1.0

    def test_empty_chunks(self):
        result = simulate_farm(3, [], JAVA_RMI, 100, 10_000)
        assert result.makespan_s == 0.0
        assert result.chunks == 0

    def test_worker_validation(self):
        with pytest.raises(SimulationError):
            simulate_farm(0, self.CHUNKS, JAVA_RMI, 100, 10_000)


class TestFig9Curve:
    def test_monotone_decreasing(self):
        curve = fig9_curve(JAVA_RMI, [1, 2, 3, 4, 5, 6])
        times = [time_s for _p, time_s in curve]
        assert times == sorted(times, reverse=True)

    def test_parc_above_java_by_sequential_gap(self):
        parc = dict(fig9_curve(MONO_117_TCP, [1, 2, 4, 6]))
        java = dict(fig9_curve(JAVA_RMI, [1, 2, 4, 6]))
        for processors in (1, 2, 4, 6):
            ratio = parc[processors] / java[processors]
            assert 1.25 < ratio < 1.75, (processors, ratio)

    def test_sequential_point_is_pure_compute(self):
        (one, time_s), *_rest = fig9_curve(JAVA_RMI, [1], per_line_s=0.1, height=100)
        assert one == 1
        assert time_s == pytest.approx(10.0 * JAVA_RMI.compute_scale_float)


class TestTables:
    def test_log_sizes_strictly_increasing(self):
        sizes = log_sizes(1, 1024 * 1024, per_decade=2)
        assert sizes[0] == 1
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["bb", 22.5]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "-" in lines[2]
        assert len(lines) == 5

    def test_human_bytes(self):
        assert human_bytes(512) == "512 B"
        assert human_bytes(2048) == "2 KB"
        assert human_bytes(3 * 1024 * 1024) == "3 MB"
