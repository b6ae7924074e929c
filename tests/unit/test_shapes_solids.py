"""Unit tests for the sphere solid."""

import numpy as np
import pytest

from repro.shapes.solids import Sphere


class TestSphere:
    def test_contains(self):
        s = Sphere(center=(1, 0, 0), radius=0.5)
        assert s.contains_point([1.0, 0.0, 0.0])
        assert s.contains_point([1.4, 0.0, 0.0])
        assert not s.contains_point([1.6, 0.0, 0.0])

    def test_surface_samples_on_sphere(self, rng):
        s = Sphere(center=(2, -1, 3), radius=1.5)
        pts = s.sample_surface(500, rng)
        d = np.linalg.norm(pts - s.center, axis=1)
        assert np.allclose(d, 1.5, atol=1e-9)

    def test_surface_sampling_roughly_uniform(self, rng):
        """Octant counts of a uniform sphere sample are balanced."""
        pts = Sphere().sample_surface(8000, rng)
        octants = (pts > 0).astype(int)
        codes = octants[:, 0] * 4 + octants[:, 1] * 2 + octants[:, 2]
        counts = np.bincount(codes, minlength=8)
        assert counts.min() > 8000 / 8 * 0.8

    def test_interior_samples_inside(self, rng):
        s = Sphere(radius=2.0)
        pts = s.sample_interior(300, rng)
        assert s.contains(pts).all()

    def test_volume_matches_monte_carlo(self, rng):
        s = Sphere(radius=1.3)
        assert s.volume_estimate(rng, samples=100_000) == pytest.approx(
            s.volume, rel=0.05
        )

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            Sphere(radius=0.0)
