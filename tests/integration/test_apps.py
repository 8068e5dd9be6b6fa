"""Integration tests for the evaluation applications (§4 workloads).

The key invariant: every parallel implementation must produce *exactly*
the sequential result (JGF validates its ray tracer the same way).
"""

from __future__ import annotations

import pytest

import repro.core as parc
from repro.apps.primes import (
    PrimeServer,
    farm_count_primes,
    is_prime,
    pipeline_primes,
    sieve,
)
from repro.apps.raytracer import (
    RenderWorker,
    checksum,
    create_scene,
    farm_render,
    render,
    render_line,
    render_lines,
    rmi_farm_render,
)
from repro.apps.raytracer.parallel import make_chunks
from repro.core import GrainPolicy, ParcConfig, SchedulerConfig

WIDTH = HEIGHT = 20
GRID = 2


@pytest.fixture(scope="module")
def reference_image():
    scene = create_scene(GRID)
    image = render(scene, WIDTH, HEIGHT)
    return image, checksum(image)


class TestSequentialTracer:
    def test_image_dimensions(self, reference_image):
        image, _checksum = reference_image
        assert len(image) == HEIGHT
        assert all(len(line) == WIDTH for line in image)

    def test_pixels_are_packed_rgb(self, reference_image):
        image, _checksum = reference_image
        for line in image:
            for pixel in line:
                assert 0 <= pixel <= 0xFFFFFF

    def test_deterministic(self, reference_image):
        _image, reference = reference_image
        again = checksum(render(create_scene(GRID), WIDTH, HEIGHT))
        assert again == reference

    def test_scene_not_all_background(self, reference_image):
        image, _checksum = reference_image
        distinct = {pixel for line in image for pixel in line}
        assert len(distinct) > 10  # spheres, highlights, shadows visible

    def test_render_line_bounds(self):
        scene = create_scene(1)
        with pytest.raises(ValueError):
            render_line(scene, HEIGHT, WIDTH, HEIGHT)

    def test_render_lines_chunk(self):
        scene = create_scene(1)
        chunk = render_lines(scene, [0, 2], 8, 8)
        assert [y for y, _line in chunk] == [0, 2]

    def test_make_chunks_partition(self):
        chunks = make_chunks(10, 3)
        flattened = [y for chunk in chunks for y in chunk]
        assert flattened == list(range(10))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    def test_make_chunks_validation(self):
        with pytest.raises(ValueError):
            make_chunks(10, 0)

    def test_scene_grid_sizes(self):
        assert len(create_scene(1).spheres) == 1
        assert len(create_scene(2).spheres) == 8
        assert len(create_scene(4).spheres) == 64
        with pytest.raises(ValueError):
            create_scene(0)


class TestParcFarm:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_checksum_matches_sequential(self, reference_image, workers):
        _image, reference = reference_image
        parc.init(
            ParcConfig(
                nodes=3,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=2)),
            )
        )
        try:
            image = farm_render(workers, WIDTH, HEIGHT, grid=GRID, lines_per_chunk=3)
            assert checksum(image) == reference
        finally:
            parc.shutdown()

    def test_aggregated_farm_matches(self, reference_image):
        _image, reference = reference_image
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=16)),
            )
        )
        try:
            image = farm_render(2, WIDTH, HEIGHT, grid=GRID, lines_per_chunk=2)
            assert checksum(image) == reference
        finally:
            parc.shutdown()

    def test_agglomerated_farm_matches(self, reference_image):
        _image, reference = reference_image
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(agglomerate=True)),
            )
        )
        try:
            image = farm_render(2, WIDTH, HEIGHT, grid=GRID)
            assert checksum(image) == reference
        finally:
            parc.shutdown()

    def test_worker_validation(self, plain_runtime):
        with pytest.raises(ValueError):
            farm_render(0, WIDTH, HEIGHT)

    def test_render_worker_is_parallel_class(self):
        info = parc.parallel_class_table.by_class(RenderWorker)
        assert info.async_methods == ["render_chunk"]
        assert info.sync_methods == ["collect"]


class TestRmiFarm:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_checksum_matches_sequential(self, reference_image, workers):
        _image, reference = reference_image
        image = rmi_farm_render(workers, WIDTH, HEIGHT, grid=GRID, lines_per_chunk=4)
        assert checksum(image) == reference

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            rmi_farm_render(0, WIDTH, HEIGHT)


class TestMpiFarm:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_checksum_matches_sequential(self, reference_image, workers):
        from repro.apps.raytracer import mpi_farm_render

        _image, reference = reference_image
        image = mpi_farm_render(workers, WIDTH, HEIGHT, grid=GRID)
        assert checksum(image) == reference

    def test_worker_validation(self):
        from repro.apps.raytracer import mpi_farm_render

        with pytest.raises(ValueError):
            mpi_farm_render(0, WIDTH, HEIGHT)

    def test_all_three_models_agree(self, reference_image):
        """The paper's §2 comparison: three models, one result."""
        from repro.apps.raytracer import mpi_farm_render

        _image, reference = reference_image
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=2)),
            )
        )
        try:
            parc_image = farm_render(2, WIDTH, HEIGHT, grid=GRID)
        finally:
            parc.shutdown()
        rmi_image = rmi_farm_render(2, WIDTH, HEIGHT, grid=GRID)
        mpi_image = mpi_farm_render(2, WIDTH, HEIGHT, grid=GRID)
        assert (
            checksum(parc_image)
            == checksum(rmi_image)
            == checksum(mpi_image)
            == reference
        )


class TestPrimes:
    def test_sieve_known_values(self):
        assert sieve(1) == []
        assert sieve(2) == [2]
        assert sieve(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert len(sieve(1000)) == 168

    def test_is_prime_agrees_with_sieve(self):
        primes = set(sieve(500))
        for candidate in range(501):
            assert is_prime(candidate) == (candidate in primes)

    @pytest.mark.parametrize("workers,batch", [(1, 8), (3, 16), (4, 7)])
    def test_farm_count(self, runtime, workers, batch):
        assert farm_count_primes(300, workers=workers, batch=batch) == len(
            sieve(299)
        )

    def test_prime_server_class_metadata(self):
        info = parc.parallel_class_table.by_class(PrimeServer)
        assert info.async_methods == ["process"]
        assert set(info.sync_methods) == {"count", "found"}

    def test_farm_found_lists(self, runtime):
        server = parc.new(PrimeServer)
        server.process([2, 3, 4, 5, 6, 7, 8, 9, 10])
        assert server.found() == [2, 3, 5, 7]
        server.parc_release()

    @pytest.mark.parametrize("limit", [1, 2, 3, 50, 100])
    def test_pipeline_matches_sieve(self, runtime, limit):
        assert pipeline_primes(limit) == sieve(limit)

    def test_pipeline_with_aggregation(self):
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(max_calls=8)),
            )
        )
        try:
            assert pipeline_primes(80) == sieve(80)
        finally:
            parc.shutdown()

    def test_pipeline_agglomerated(self):
        parc.init(
            ParcConfig(
                nodes=2,
                scheduler=SchedulerConfig(grain=GrainPolicy(agglomerate=True)),
            )
        )
        try:
            assert pipeline_primes(80) == sieve(80)
        finally:
            parc.shutdown()
