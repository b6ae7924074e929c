"""Unit tests for classical MDS, completion, and SMACOF refinement."""

import numpy as np
import pytest

from repro.geometry.mds import (
    classical_mds,
    complete_distance_matrix,
    local_mds_embedding,
    smacof_refine,
)
from repro.geometry.primitives import pairwise_distances
from repro.geometry.transforms import procrustes_disparity


class TestCompleteDistanceMatrix:
    def test_no_missing_passthrough(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(complete_distance_matrix(d), d)

    def test_fills_via_shortest_path(self):
        # Chain 0-1-2 with edge 0-2 missing: completed as 1+1=2.
        d = np.array(
            [[0.0, 1.0, np.inf], [1.0, 0.0, 1.0], [np.inf, 1.0, 0.0]]
        )
        completed = complete_distance_matrix(d)
        assert completed[0, 2] == pytest.approx(2.0)

    def test_triangle_inequality_tightening(self):
        # A long direct measurement is replaced by a shorter 2-leg path.
        d = np.array(
            [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        )
        completed = complete_distance_matrix(d)
        assert completed[0, 2] == pytest.approx(2.0)

    def test_unreachable_gets_ceiling(self):
        d = np.array([[0.0, np.inf], [np.inf, 0.0]])
        completed = complete_distance_matrix(d)
        assert completed[0, 1] == pytest.approx(2.0)  # UNREACHABLE_LOCAL_DISTANCE

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            complete_distance_matrix(np.zeros((2, 3)))


class TestClassicalMDS:
    def test_recovers_exact_geometry(self, rng):
        pts = rng.normal(size=(12, 3))
        coords = classical_mds(pairwise_distances(pts))
        assert procrustes_disparity(coords, pts) < 1e-8

    def test_output_centered(self, rng):
        pts = rng.normal(size=(8, 3)) + 10.0
        coords = classical_mds(pairwise_distances(pts))
        assert np.allclose(coords.mean(axis=0), 0.0, atol=1e-8)

    def test_planar_input_gets_zero_third_axis(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float)
        coords = classical_mds(pairwise_distances(pts))
        # Planar configuration embeds with (near) zero variance on one axis.
        spread = np.sort(coords.std(axis=0))
        assert spread[0] < 1e-8

    def test_empty_input(self):
        assert classical_mds(np.zeros((0, 0))).shape == (0, 3)

    def test_infinite_entries_rejected(self):
        with pytest.raises(ValueError):
            classical_mds(np.array([[0.0, np.inf], [np.inf, 0.0]]))


class TestSmacofRefine:
    def test_improves_noisy_init(self, rng):
        pts = rng.normal(size=(15, 3))
        target = pairwise_distances(pts)
        weights = np.ones_like(target) - np.eye(15)
        init = pts + rng.normal(scale=0.3, size=pts.shape)
        refined, _ = smacof_refine(init, target, weights, iterations=100)
        assert procrustes_disparity(refined, pts) < procrustes_disparity(init, pts)

    def test_zero_weights_noop(self, rng):
        pts = rng.normal(size=(6, 3))
        out, steps = smacof_refine(
            pts, np.zeros((6, 6)), np.zeros((6, 6)), iterations=10
        )
        assert np.allclose(out, pts)
        assert steps == 0

    def test_single_point_noop(self):
        pts = np.array([[1.0, 2.0, 3.0]])
        out, steps = smacof_refine(pts, np.zeros((1, 1)), np.zeros((1, 1)))
        assert np.allclose(out, pts)
        assert steps == 0


class TestLocalMDSEmbedding:
    def test_partial_measurements_recovered_with_refinement(self, rng):
        """Exact distances on a partial graph embed near-exactly."""
        pts = rng.uniform(-0.6, 0.6, size=(14, 3))
        true_d = pairwise_distances(pts)
        partial = true_d.copy()
        # Knock out the longest 30% of pairs (out of radio range).
        threshold = np.quantile(true_d[true_d > 0], 0.7)
        partial[true_d > threshold] = np.inf
        np.fill_diagonal(partial, 0.0)
        coords, _ = local_mds_embedding(partial)
        assert procrustes_disparity(coords, pts) < 0.05

    def test_refinement_beats_classical_on_partial_data(self, rng):
        pts = rng.uniform(-0.6, 0.6, size=(14, 3))
        true_d = pairwise_distances(pts)
        partial = true_d.copy()
        threshold = np.quantile(true_d[true_d > 0], 0.6)
        partial[true_d > threshold] = np.inf
        np.fill_diagonal(partial, 0.0)
        refined, _ = local_mds_embedding(partial)
        unrefined = classical_mds(complete_distance_matrix(partial))
        assert procrustes_disparity(refined, pts) <= procrustes_disparity(
            unrefined, pts
        ) + 1e-9
