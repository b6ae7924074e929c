"""SMACOF refinement details: weighting, early stop, pinned behavior."""

import numpy as np
import pytest

from repro.geometry.mds import smacof_refine
from repro.geometry.primitives import pairwise_distances
from repro.geometry.transforms import procrustes_disparity


class TestWeighting:
    def test_zero_weight_pairs_ignored(self, rng):
        """Corrupting a zero-weight entry must not change the result."""
        pts = rng.normal(size=(10, 3))
        target = pairwise_distances(pts)
        weights = np.ones_like(target) - np.eye(10)
        weights[0, 1] = weights[1, 0] = 0.0
        init = pts + rng.normal(scale=0.1, size=pts.shape)

        corrupted = target.copy()
        corrupted[0, 1] = corrupted[1, 0] = 99.0
        a, _ = smacof_refine(init, target, weights, iterations=40)
        b, _ = smacof_refine(init, corrupted, weights, iterations=40)
        assert np.allclose(a, b)

    def test_heavier_weight_fits_tighter(self, rng):
        """Up-weighted pairs end closer to their targets."""
        pts = rng.normal(size=(12, 3))
        target = pairwise_distances(pts)
        # Conflicting demand: stretch pair (0, 1) by 50%.
        conflicted = target.copy()
        conflicted[0, 1] = conflicted[1, 0] = target[0, 1] * 1.5
        init = pts.copy()

        w_low = np.ones_like(target) - np.eye(12)
        w_high = w_low.copy()
        w_high[0, 1] = w_high[1, 0] = 50.0

        out_low, _ = smacof_refine(init, conflicted, w_low, iterations=80)
        out_high, _ = smacof_refine(init, conflicted, w_high, iterations=80)
        err_low = abs(
            np.linalg.norm(out_low[0] - out_low[1]) - conflicted[0, 1]
        )
        err_high = abs(
            np.linalg.norm(out_high[0] - out_high[1]) - conflicted[0, 1]
        )
        assert err_high < err_low


class TestConvergence:
    def test_perfect_init_unchanged(self, rng):
        pts = rng.normal(size=(8, 3))
        target = pairwise_distances(pts)
        weights = np.ones_like(target) - np.eye(8)
        out, _ = smacof_refine(pts, target, weights, iterations=30)
        assert procrustes_disparity(out, pts) < 1e-6

    def test_iterations_zero_is_identity(self, rng):
        pts = rng.normal(size=(6, 3))
        target = pairwise_distances(pts) * 2.0
        weights = np.ones_like(target) - np.eye(6)
        out, steps = smacof_refine(pts, target, weights, iterations=0)
        assert np.allclose(out, pts)
        assert steps == 0
