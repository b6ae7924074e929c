"""Basic vector and triangle geometry in 3D.

All functions accept array-likes and operate on ``float64`` numpy arrays.
Points are row vectors of shape ``(3,)``; point sets are ``(n, 3)`` arrays.
"""

from __future__ import annotations

import numpy as np

#: Tolerance below which a triangle is treated as degenerate (collinear).
DEGENERACY_TOL = 1e-12


def as_point(p) -> np.ndarray:
    """Return ``p`` as a ``(3,)`` float64 array.

    Raises
    ------
    ValueError
        If ``p`` does not have exactly three components.
    """
    arr = np.asarray(p, dtype=float).reshape(-1)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3D point, got shape {arr.shape}")
    return arr


def as_points(pts) -> np.ndarray:
    """Return ``pts`` as an ``(n, 3)`` float64 array."""
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) point array, got shape {arr.shape}")
    return arr


def norm(v) -> float:
    """Euclidean norm of a 3-vector."""
    return float(np.linalg.norm(np.asarray(v, dtype=float)))


def normalize(v) -> np.ndarray:
    """Return ``v`` scaled to unit length.

    Raises
    ------
    ValueError
        If ``v`` is (numerically) the zero vector.
    """
    arr = np.asarray(v, dtype=float)
    length = np.linalg.norm(arr)
    if length < DEGENERACY_TOL:
        raise ValueError("cannot normalize a zero-length vector")
    return arr / length


def pairwise_distances(points) -> np.ndarray:
    """Dense symmetric matrix of Euclidean distances between ``points``.

    Uses direct difference broadcasting, which is exact enough for the small
    one-hop neighborhoods this library works with (tens of points).
    """
    pts = as_points(points)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def circumcenter(p1, p2, p3) -> np.ndarray:
    """Circumcenter of a non-degenerate triangle in 3D.

    The circumcenter is the unique point in the plane of the triangle that is
    equidistant from all three vertices.

    Raises
    ------
    ValueError
        If the three points are (numerically) collinear.
    """
    p1 = as_point(p1)
    a = as_point(p2) - p1
    b = as_point(p3) - p1
    n = np.cross(a, b)
    n2 = float(np.dot(n, n))
    if n2 < DEGENERACY_TOL:
        raise ValueError("collinear points have no circumcenter")
    offset = (np.dot(a, a) * np.cross(b, n) + np.dot(b, b) * np.cross(n, a)) / (2.0 * n2)
    return p1 + offset


def circumradius(p1, p2, p3) -> float:
    """Circumradius of a non-degenerate triangle in 3D."""
    center = circumcenter(p1, p2, p3)
    return norm(center - as_point(p1))
