"""Unit tests for repro.geometry.primitives."""

import numpy as np
import pytest

from repro.geometry.primitives import (
    as_point,
    as_points,
    circumcenter,
    circumradius,
    norm,
    normalize,
    pairwise_distances,
)


class TestAsPoint:
    def test_accepts_list(self):
        assert np.allclose(as_point([1, 2, 3]), [1.0, 2.0, 3.0])

    def test_accepts_row_array(self):
        assert as_point(np.array([[1.0, 2.0, 3.0]])).shape == (3,)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            as_point([1, 2])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_point(np.zeros((2, 3)))


class TestAsPoints:
    def test_single_point_promoted(self):
        assert as_points([1, 2, 3]).shape == (1, 3)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            as_points(np.zeros((4, 2)))


class TestNorm:
    def test_unit_axes(self):
        assert norm([1, 0, 0]) == 1.0
        assert norm([0, 0, -1]) == 1.0

    def test_pythagoras(self):
        assert norm([3, 4, 0]) == pytest.approx(5.0)


class TestNormalize:
    def test_result_is_unit(self):
        v = normalize([3.0, 4.0, 12.0])
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_preserves_direction(self):
        v = normalize([0.0, 2.0, 0.0])
        assert np.allclose(v, [0, 1, 0])

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            normalize([0.0, 0.0, 0.0])


class TestPairwiseDistances:
    def test_symmetric_zero_diagonal(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0]], dtype=float)
        d = pairwise_distances(pts)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_known_values(self):
        pts = np.array([[0, 0, 0], [3, 4, 0]], dtype=float)
        d = pairwise_distances(pts)
        assert d[0, 1] == pytest.approx(5.0)


class TestCircumcenter:
    def test_right_triangle_in_plane(self):
        c = circumcenter([0, 0, 0], [2, 0, 0], [0, 2, 0])
        assert np.allclose(c, [1, 1, 0])

    def test_equidistance_property(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(3, 3))
            try:
                c = circumcenter(*pts)
            except ValueError:
                continue
            dists = [np.linalg.norm(c - p) for p in pts]
            assert dists[0] == pytest.approx(dists[1], rel=1e-9)
            assert dists[0] == pytest.approx(dists[2], rel=1e-9)

    def test_collinear_raises(self):
        with pytest.raises(ValueError):
            circumcenter([0, 0, 0], [1, 1, 1], [2, 2, 2])

    def test_off_plane_triangle(self):
        c = circumcenter([1, 0, 0], [0, 1, 0], [0, 0, 1])
        # By symmetry the circumcenter is on the diagonal.
        assert c[0] == pytest.approx(c[1])
        assert c[1] == pytest.approx(c[2])


class TestCircumradius:
    def test_equilateral(self):
        # Side s equilateral triangle has circumradius s / sqrt(3).
        s = 2.0
        p1 = [0, 0, 0]
        p2 = [s, 0, 0]
        p3 = [s / 2, s * np.sqrt(3) / 2, 0]
        assert circumradius(p1, p2, p3) == pytest.approx(s / np.sqrt(3))
