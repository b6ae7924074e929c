"""Unit tests for the generic Shape3D machinery."""

import numpy as np
import pytest

from repro.shapes.csg import Difference
from repro.shapes.sampling import multinomial_split, sample_unit_sphere
from repro.shapes.solids import Sphere


class TestGenericInterior:
    def test_rejection_sampler_fails_on_empty_region(self, rng):
        # A hole that swallows the whole outer shape leaves no interior.
        empty = Difference(Sphere(radius=0.5), [Sphere(radius=1.0)])
        with pytest.raises(RuntimeError):
            empty.sample_interior(10, rng, max_batches=3)

    def test_zero_requests(self, rng):
        s = Sphere()
        assert s.sample_interior(0, rng).shape == (0, 3)

    def test_contains_point_scalar(self):
        assert Sphere().contains_point([0.0, 0.0, 0.0])
        assert not Sphere().contains_point([2.0, 0.0, 0.0])


class TestSamplers:
    def test_unit_sphere_norms(self, rng):
        pts = sample_unit_sphere(500, rng)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_zero_counts(self, rng):
        assert sample_unit_sphere(0, rng).shape == (0, 3)


class TestMultinomialSplit:
    def test_sums_to_n(self, rng):
        counts = multinomial_split(100, [1.0, 2.0, 7.0], rng)
        assert counts.sum() == 100

    def test_proportions(self, rng):
        counts = multinomial_split(100_000, [1.0, 3.0], rng)
        assert counts[1] / counts.sum() == pytest.approx(0.75, abs=0.01)

    def test_invalid_weights(self, rng):
        with pytest.raises(ValueError):
            multinomial_split(10, [-1.0, 2.0], rng)
        with pytest.raises(ValueError):
            multinomial_split(10, [0.0, 0.0], rng)
