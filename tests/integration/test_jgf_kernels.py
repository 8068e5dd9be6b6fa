"""Tests for the JGF Section-2 kernels: sequential validity + parallel
bit-exactness (the JGF validation discipline)."""

from __future__ import annotations

import copy
import math

import pytest

import repro.core as parc
from repro.apps.jgf import (
    fourier_coefficients,
    idea_decrypt,
    idea_encrypt,
    make_key,
    parallel_crypt_roundtrip,
    parallel_fourier_coefficients,
    parallel_sor,
    parallel_sparse_matmult,
    random_sparse_matrix,
    sor,
    sor_checksum,
    sparse_matmult,
)
from repro.apps.jgf.crypt import (
    _mul,
    _mul_inverse,
    expand_key,
    invert_key,
)
from repro.apps.jgf.sor import make_grid
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig


class TestSeriesSequential:
    def test_dc_coefficient_value(self):
        # a0 = (1/2)∫₀² (x+1)^x dx; the integral is ≈ 5.764, so a0 ≈ 2.88.
        a0, b0 = fourier_coefficients(1)[0]
        assert 2.85 < a0 < 2.92
        assert b0 == 0.0

    def test_first_harmonic_matches_jgf_reference(self):
        # JGF Series validates a[1] ≈ 1.1336, b[1] ≈ -1.8819.
        (_a0, _b0), (a1, b1) = fourier_coefficients(2)
        assert a1 == pytest.approx(1.1336, abs=5e-3)
        assert b1 == pytest.approx(-1.8819, abs=5e-3)

    def test_coefficients_decay(self):
        coefficients = fourier_coefficients(8)
        magnitudes = [
            math.hypot(a, b) for a, b in coefficients[1:]
        ]
        assert magnitudes[0] > magnitudes[-1]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            fourier_coefficients(0)


class TestSorSequential:
    def test_relaxation_is_deterministic(self):
        first = make_grid(10)
        second = make_grid(10)
        sor(first, 4)
        sor(second, 4)
        assert first == second

    def test_boundary_rows_fixed(self):
        grid = make_grid(10)
        top = list(grid[0])
        bottom = list(grid[-1])
        left = [row[0] for row in grid]
        right = [row[-1] for row in grid]
        sor(grid, 6)
        assert grid[0] == top
        assert grid[-1] == bottom
        assert [row[0] for row in grid] == left
        assert [row[-1] for row in grid] == right

    def test_relaxation_smooths(self):
        grid = make_grid(16)
        before = sor_checksum(grid)
        sor(grid, 10)
        after = sor_checksum(grid)
        assert after != before  # it did something
        assert all(math.isfinite(v) for row in grid for v in row)


class TestIdeaCipher:
    def test_mul_group_laws(self):
        for x in (0, 1, 2, 3, 255, 32768, 65535):
            assert _mul(x, _mul_inverse(x)) == 1, x

    def test_mul_zero_encoding(self):
        # 0 encodes 65536 ≡ -1: (-1)·(-1) = 1.
        assert _mul(0, 0) == 1

    def test_key_expansion_size_and_determinism(self):
        key = expand_key([1, 2, 3, 4, 5, 6, 7, 8])
        assert len(key) == 52
        assert key[:8] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert key == expand_key([1, 2, 3, 4, 5, 6, 7, 8])

    def test_invert_key_is_involution_on_crypt(self):
        key = make_key(seed=5)
        data = bytes(range(64, 192))
        assert idea_decrypt(idea_encrypt(data, key), key) == data

    def test_different_keys_differ(self):
        data = bytes(64)
        assert idea_encrypt(data, make_key(1)) != idea_encrypt(
            data, make_key(2)
        )

    def test_avalanche(self):
        key = make_key()
        base = idea_encrypt(bytes(8), key)
        flipped = idea_encrypt(bytes([1] + [0] * 7), key)
        differing = sum(a != b for a, b in zip(base, flipped))
        assert differing >= 4  # most ciphertext bytes change

    def test_unaligned_data_rejected(self):
        with pytest.raises(ValueError):
            idea_encrypt(b"short", make_key())

    def test_invert_key_validation(self):
        with pytest.raises(ValueError):
            invert_key([1, 2, 3])
        with pytest.raises(ValueError):
            expand_key([1])


class TestSparseSequential:
    def test_matrix_shape(self):
        row_ptr, col_idx, values = random_sparse_matrix(20, 4)
        assert len(row_ptr) == 21
        assert len(col_idx) == len(values) == 80
        assert all(0 <= c < 20 for c in col_idx)

    def test_identity_like_behaviour(self):
        # A matrix with a single diagonal nonzero of 1.0 maps x to x
        # (after normalization by max |x| = 1).
        size = 5
        row_ptr = list(range(size + 1))
        col_idx = list(range(size))
        values = [1.0] * size
        x = [0.5, -1.0, 0.25, 1.0, 0.0]
        assert sparse_matmult((row_ptr, col_idx, values), x) == x

    def test_deterministic(self):
        matrix = random_sparse_matrix(25, 3, seed=9)
        x = [1.0] * 25
        assert sparse_matmult(matrix, x, 4) == sparse_matmult(matrix, x, 4)

    def test_too_dense_rejected(self):
        with pytest.raises(ValueError):
            random_sparse_matrix(3, 4)


@pytest.fixture
def jgf_runtime():
    parc.init(
        ParcConfig(
            nodes=3,
            scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=2)),
        )
    )
    try:
        yield
    finally:
        parc.shutdown()


class TestParallelKernelsExact:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_series(self, jgf_runtime, workers):
        assert parallel_fourier_coefficients(7, workers=workers) == (
            fourier_coefficients(7)
        )

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_sor(self, jgf_runtime, workers):
        grid = make_grid(11)
        reference = copy.deepcopy(grid)
        sor(reference, 4)
        assert parallel_sor(grid, 4, workers=workers) == reference

    def test_sor_tiny_grid_falls_back(self, jgf_runtime):
        grid = make_grid(2)
        reference = copy.deepcopy(grid)
        sor(reference, 3)
        assert parallel_sor(grid, 3, workers=4) == reference

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_crypt(self, jgf_runtime, workers):
        key = make_key(seed=3)
        data = bytes(range(256)) * 2
        expected_ct = idea_encrypt(data, key)
        ciphertext, plaintext = parallel_crypt_roundtrip(
            data, key, workers=workers
        )
        assert ciphertext == expected_ct
        assert plaintext == data

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_sparse_matmult(self, jgf_runtime, workers):
        matrix = random_sparse_matrix(24, 4)
        x = [1.0] * 24
        expected = sparse_matmult(matrix, x, iterations=3)
        assert parallel_sparse_matmult(
            matrix, x, iterations=3, workers=workers
        ) == expected

    def test_more_workers_than_rows(self, jgf_runtime):
        matrix = random_sparse_matrix(4, 2)
        x = [1.0] * 4
        assert parallel_sparse_matmult(matrix, x, workers=16) == (
            sparse_matmult(matrix, x)
        )

    def test_kernels_under_aggregation(self):
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=16)),
            )
        )
        try:
            grid = make_grid(9)
            reference = copy.deepcopy(grid)
            sor(reference, 3)
            assert parallel_sor(grid, 3, workers=2) == reference
        finally:
            parc.shutdown()

    def test_kernels_agglomerated(self):
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(agglomerate=True)),
            )
        )
        try:
            assert parallel_fourier_coefficients(5, workers=2) == (
                fourier_coefficients(5)
            )
        finally:
            parc.shutdown()
