"""Tests for the JGF MonteCarlo application."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.apps.jgf import (
    calibrate,
    historical_series,
    monte_carlo,
    parallel_monte_carlo,
    simulate_path,
)
from repro.errors import ScooppError


class TestCalibration:
    def test_historical_series_deterministic(self):
        assert historical_series(seed=7) == historical_series(seed=7)
        assert historical_series(seed=7) != historical_series(seed=8)

    def test_series_positive(self):
        assert all(price > 0 for price in historical_series())

    def test_calibrate_recovers_parameters_roughly(self):
        # A long synthetic series' calibration should land near the
        # generating parameters (0.0005 drift, 0.012 vol).
        prices = historical_series(days=20_000, seed=3)
        drift, volatility = calibrate(prices)
        assert drift == pytest.approx(0.0005, abs=3e-4)
        assert volatility == pytest.approx(0.012, rel=0.1)

    def test_calibrate_validation(self):
        with pytest.raises(ValueError):
            calibrate([100.0])


class TestSequentialSimulation:
    def test_paths_reproducible_by_index(self):
        first = simulate_path(5, 100, 100.0, 0.0005, 0.012, base_seed=1)
        second = simulate_path(5, 100, 100.0, 0.0005, 0.012, base_seed=1)
        assert first == second

    def test_different_paths_differ(self):
        a = simulate_path(1, 100, 100.0, 0.0005, 0.012)
        b = simulate_path(2, 100, 100.0, 0.0005, 0.012)
        assert a != b

    def test_returns_bounded_below(self):
        # A return can never be below -100%.
        _mean, returns = monte_carlo(100, steps=50)
        assert all(value > -1.0 for value in returns)

    def test_expected_return_sane(self):
        mean, returns = monte_carlo(400, steps=250)
        assert len(returns) == 400
        # Drift 0.05%/day over 250 days ≈ +13%; wide tolerance for MC noise.
        assert -0.3 < mean < 0.8
        assert statistics.pstdev(returns) > 0.05  # real dispersion

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo(0)


class TestParallelMonteCarlo:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_bit_identical_to_sequential(self, runtime, workers):
        expected_mean, expected_returns = monte_carlo(60, steps=40)
        mean, returns = parallel_monte_carlo(60, steps=40, workers=workers)
        assert returns == expected_returns  # exact, not approximate
        assert mean == expected_mean

    def test_partitioning_never_changes_results(self, runtime):
        baseline = parallel_monte_carlo(30, steps=20, workers=1)
        for workers in (2, 4, 7):
            assert parallel_monte_carlo(30, steps=20, workers=workers) == baseline

    def test_worker_validation(self, runtime):
        with pytest.raises(ScooppError):
            parallel_monte_carlo(10, workers=0)

    def test_independent_of_node_count(self):
        import repro.core as parc

        results = []
        for nodes in (1, 3):
            parc.init(parc.ParcConfig(nodes=nodes))
            try:
                results.append(parallel_monte_carlo(25, steps=15, workers=3))
            finally:
                parc.shutdown()
        assert results[0] == results[1]
