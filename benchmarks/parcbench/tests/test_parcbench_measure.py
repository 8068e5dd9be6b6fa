"""Statistics helpers and /proc readers (no runtime needed)."""

import os
import statistics
import subprocess
import sys
import threading
import time

import pytest

import measure


class TestSegmentStatistics:
    def test_median_and_quartiles_match_the_drivers_estimator(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        assert measure.median(values) == 5.5
        assert measure.quartiles(values) == tuple(statistics.quantiles(values, n=4))

    def test_empty_inputs_are_errors_not_zeros(self):
        with pytest.raises(ValueError):
            measure.median([])
        with pytest.raises(ValueError):
            measure.quartiles([1.0])
        with pytest.raises(ValueError):
            measure.percentile([], 50.0)

    def test_segment_rates_pair_by_position(self):
        assert measure.segment_rates([100, 100], [0.5, 2.0]) == [200.0, 50.0]
        with pytest.raises(ValueError):
            measure.segment_rates([1, 2], [1.0])

    def test_percentile_is_nearest_rank(self):
        ordered = list(range(1, 101))
        assert measure.percentile(ordered, 50.0) == 50
        assert measure.percentile(ordered, 99.0) == 99
        assert measure.percentile(ordered, 100.0) == 100
        assert measure.percentile([7.0], 10.0) == 7.0

    def test_relative_difference(self):
        assert measure.relative_difference(100.0, 100.0) == 0.0
        assert measure.relative_difference(90.0, 110.0) == pytest.approx(0.2)
        assert measure.relative_difference(0.0, 0.0) == 0.0


class TestTailRule:
    """A percentile is reported only with ten samples beyond it."""

    @pytest.mark.parametrize(
        "count, expected_pct",
        [(99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9_999, 99.0), (10_000, 99.9)],
    )
    def test_highest_percentile_the_sample_supports(self, count, expected_pct):
        tail = measure.tail_percentile(range(count))
        if expected_pct is None:
            assert tail is None
        else:
            pct, value, samples = tail
            assert pct == expected_pct
            assert samples == count
            assert value == measure.percentile(list(range(count)), pct)


class TestHostProbe:
    def test_factor_is_positive_and_the_helper_ends(self):
        probe = measure.HostProbe()
        try:
            here = probe.factor()
            everywhere = probe.factor(sorted(os.sched_getaffinity(0)))
            assert 0.1 < here < 50 and 0.1 < everywhere < 50
            assert measure.pid_alive(probe.pid)
        finally:
            probe.close()
        assert not measure.pid_alive(probe.pid)

    def test_probe_puts_the_calling_thread_back(self):
        before = os.sched_getaffinity(0)
        probe = measure.HostProbe()
        try:
            probe.factor(sorted(before))
        finally:
            probe.close()
        assert os.sched_getaffinity(0) == before

    def test_spin_takes_time(self):
        assert measure.spin() > 0


class TestProcReaders:
    def test_cpu_seconds_counts_work_in_every_thread(self):
        before = measure.cpu_seconds(os.getpid())

        def burn():
            deadline = time.process_time() + 0.05
            while time.process_time() < deadline:
                pass

        worker = threading.Thread(target=burn)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert measure.cpu_seconds(os.getpid()) - before >= 0.04

    def test_cpu_seconds_reads_another_process(self):
        child = subprocess.Popen(
            [sys.executable, "-c", "import sys; sum(range(3_000_000)); sys.stdin.read()"],
            stdin=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30
            while measure.cpu_seconds(child.pid) < 0.01 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert measure.cpu_seconds(child.pid) >= 0.01
            assert measure.pid_alive(child.pid)
        finally:
            child.stdin.close()
            child.wait(timeout=30)
        assert not measure.pid_alive(child.pid)

    def test_peak_rss_and_thread_count(self):
        assert measure.peak_rss_mb(os.getpid()) > 1.0
        before = measure.thread_count(os.getpid())
        release = threading.Event()
        extra = threading.Thread(target=release.wait, args=(30,))
        extra.start()
        try:
            assert measure.thread_count(os.getpid()) == before + 1
        finally:
            release.set()
            extra.join(timeout=30)
        assert not extra.is_alive()

    def test_host_counters(self):
        assert measure.steal_ticks() >= 0
        assert measure.loadavg() >= 0.0
        env = measure.environment()
        assert env["nproc"] >= 1 and env["python"] and env["kernel"]

    def test_busy_warnings(self):
        cores = os.cpu_count() or 1
        assert measure.busy_warnings(0.0, 0.0, 0, 10.0) == []
        assert len(measure.busy_warnings(4.0 * cores, 0.0, 0, 10.0)) == 1
        assert len(measure.busy_warnings(0.0, 4.0 * cores, 0, 10.0)) == 1
        ticks_in_run = 10 * os.sysconf("SC_CLK_TCK") * cores
        assert len(measure.busy_warnings(0.0, 0.0, ticks_in_run // 10, 10.0)) == 1
