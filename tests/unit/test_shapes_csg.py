"""Unit tests for the CSG difference."""

import numpy as np
import pytest

from repro.shapes.csg import Difference
from repro.shapes.solids import Sphere


class TestDifference:
    def setup_method(self):
        self.shape = Difference(
            Sphere(radius=1.0), [Sphere(center=(0.3, 0, 0), radius=0.3)]
        )

    def test_contains_excludes_hole(self):
        assert not self.shape.contains_point([0.3, 0.0, 0.0])
        assert self.shape.contains_point([-0.5, 0.0, 0.0])
        assert not self.shape.contains_point([1.5, 0.0, 0.0])

    def test_surface_includes_both_boundaries(self, rng):
        pts = self.shape.sample_surface(800, rng)
        d_outer = np.abs(np.linalg.norm(pts, axis=1) - 1.0)
        d_hole = np.abs(
            np.linalg.norm(pts - np.array([0.3, 0, 0]), axis=1) - 0.3
        )
        on_outer = d_outer < 1e-9
        on_hole = d_hole < 1e-9
        assert (on_outer | on_hole).all()
        assert on_outer.sum() > 0
        assert on_hole.sum() > 0

    def test_surface_split_proportional_to_area(self, rng):
        pts = self.shape.sample_surface(4000, rng)
        on_hole = (
            np.abs(np.linalg.norm(pts - np.array([0.3, 0, 0]), axis=1) - 0.3)
            < 1e-9
        )
        expected_fraction = (0.3 ** 2) / (1.0 ** 2 + 0.3 ** 2)
        assert on_hole.mean() == pytest.approx(expected_fraction, abs=0.03)

    def test_interior_avoids_hole(self, rng):
        pts = self.shape.sample_interior(500, rng)
        assert self.shape.contains(pts).all()

    def test_requires_holes(self):
        with pytest.raises(ValueError):
            Difference(Sphere(), [])

    def test_volume_is_outer_minus_hole(self, rng):
        expected = Sphere(radius=1.0).volume - Sphere(radius=0.3).volume
        assert self.shape.volume_estimate(rng, samples=150_000) == pytest.approx(
            expected, rel=0.05
        )
