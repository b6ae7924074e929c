"""Property-based tests for shape invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shapes.csg import Difference
from repro.shapes.pipe import BentPipe
from repro.shapes.solids import Sphere


def _shapes():
    return st.sampled_from(
        [
            Sphere(radius=1.0),
            Sphere(center=(1, 2, 3), radius=0.7),
            BentPipe(bend_radius=1.0, tube_radius=0.3),
            Difference(Sphere(radius=1.0), [Sphere(center=(0.3, 0, 0), radius=0.3)]),
            Difference(
                Sphere(radius=1.0),
                [
                    Sphere(center=(-0.42, 0, 0), radius=0.27),
                    Sphere(center=(0.42, 0.1, 0.05), radius=0.27),
                ],
            ),
        ]
    )


class TestShapeInvariants:
    @given(_shapes(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_interior_samples_inside(self, shape, seed):
        rng = np.random.default_rng(seed)
        pts = shape.sample_interior(50, rng)
        assert shape.contains(pts).all()

    @given(_shapes(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_interior_within_bounding_box(self, shape, seed):
        rng = np.random.default_rng(seed)
        pts = shape.sample_interior(50, rng)
        lo, hi = shape.bounding_box
        assert (pts >= lo - 1e-9).all()
        assert (pts <= hi + 1e-9).all()

    @given(_shapes(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_surface_within_bounding_box(self, shape, seed):
        rng = np.random.default_rng(seed)
        pts = shape.sample_surface(50, rng)
        lo, hi = shape.bounding_box
        assert (pts >= lo - 1e-9).all()
        assert (pts <= hi + 1e-9).all()

    @given(_shapes(), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_surface_points_near_membership_frontier(self, shape, seed):
        """An epsilon-ball around a surface point straddles the membership
        frontier: probing several directions finds both an inside and an
        outside classification.

        A single probe direction is not enough -- e.g. for a point on a
        spherical end cap, the direction toward an interior anchor can be
        tangent to the cap, leaving both +/-eps probes outside.  Probing the
        anchor direction plus a batch of seeded random directions makes the
        frontier property robust to such tangencies.
        """
        rng = np.random.default_rng(seed)
        pts = shape.sample_surface(20, rng)
        anchor = shape.sample_interior(1, np.random.default_rng(0))[0]
        probe_rng = np.random.default_rng(1)
        extra_dirs = probe_rng.normal(size=(8, 3))
        extra_dirs /= np.linalg.norm(extra_dirs, axis=1, keepdims=True)
        eps = 1e-3
        for p in pts:
            directions = [anchor - p, *extra_dirs]
            verdicts = []
            for direction in directions:
                norm = np.linalg.norm(direction)
                if norm < 1e-6:
                    continue
                step = eps * direction / norm
                verdicts.append(shape.contains_point(p + step))
                verdicts.append(shape.contains_point(p - step))
            assert any(verdicts), f"no probe around {p} falls inside"
            assert not all(verdicts), f"no probe around {p} falls outside"

    @given(_shapes(), st.integers(0, 1000), st.integers(1001, 2000))
    @settings(max_examples=20, deadline=None)
    def test_sampling_deterministic_per_seed(self, shape, seed_a, seed_b):
        a1 = shape.sample_surface(10, np.random.default_rng(seed_a))
        a2 = shape.sample_surface(10, np.random.default_rng(seed_a))
        b = shape.sample_surface(10, np.random.default_rng(seed_b))
        assert np.allclose(a1, a2)
        assert not np.allclose(a1, b)
