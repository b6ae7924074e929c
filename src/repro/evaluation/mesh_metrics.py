"""Mesh quality metrics: topology and geometric fidelity.

The paper argues two things about its meshes: they are locally planarized
2-manifolds (every virtual edge on exactly two triangular faces -- Sec. III
step V), and they are "not seriously deformed under distance measurement
errors" (Figs. 1(j)-(l)).  :class:`MeshQuality` quantifies both:

* topology -- vertex/edge/face counts, the Euler characteristic, the
  per-edge face-count histogram, and the 2-manifold flag;
* geometry -- the distance from each boundary node's true position to the
  mesh (landmark triangles embedded at the landmarks' true positions),
  summarizing how faithfully the coarse mesh tracks the real surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.network.generator import Network
from repro.surface.mesh import TriangularMesh


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Distance from ``p`` to the segment ``ab`` (degenerate-safe)."""
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom < 1e-18:
        return float(np.linalg.norm(p - a))
    t = float(np.clip(np.dot(p - a, ab) / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def point_triangle_distance(point, a, b, c) -> float:
    """Euclidean distance from ``point`` to the (filled) triangle ``abc``.

    Standard region-based projection onto the triangle's plane with edge
    and vertex clamping (Ericson, *Real-Time Collision Detection*).
    Degenerate triangles (collinear or duplicated vertices) fall back to
    the minimum distance over the three edges.
    """
    p = np.asarray(point, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)

    normal = np.cross(b - a, c - a)
    if float(np.dot(normal, normal)) < 1e-18:
        return min(
            _point_segment_distance(p, a, b),
            _point_segment_distance(p, b, c),
            _point_segment_distance(p, a, c),
        )

    ab = b - a
    ac = c - a
    ap = p - a
    d1 = float(np.dot(ab, ap))
    d2 = float(np.dot(ac, ap))
    if d1 <= 0.0 and d2 <= 0.0:
        return float(np.linalg.norm(p - a))

    bp = p - b
    d3 = float(np.dot(ab, bp))
    d4 = float(np.dot(ac, bp))
    if d3 >= 0.0 and d4 <= d3:
        return float(np.linalg.norm(p - b))

    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        t = d1 / (d1 - d3)
        return float(np.linalg.norm(p - (a + t * ab)))

    cp = p - c
    d5 = float(np.dot(ab, cp))
    d6 = float(np.dot(ac, cp))
    if d6 >= 0.0 and d5 <= d6:
        return float(np.linalg.norm(p - c))

    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        t = d2 / (d2 - d6)
        return float(np.linalg.norm(p - (a + t * ac)))

    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return float(np.linalg.norm(p - (b + t * (c - b))))

    # Inside the face region the distance is the distance to the plane.
    # Measuring it along the normal avoids rebuilding the projection from
    # barycentrics, which lose precision on sliver triangles.
    return float(abs(np.dot(ap, normal)) / np.sqrt(np.dot(normal, normal)))


@dataclass(frozen=True)
class MeshQuality:
    """Quality summary of one boundary mesh.

    Attributes
    ----------
    n_vertices, n_edges, n_faces:
        Landmark-graph counts (faces are triangles).
    euler_characteristic:
        ``V - E + F``; 2 for a sphere-like closed surface.
    is_two_manifold:
        True iff every edge lies on exactly two triangles.
    two_faced_edge_fraction:
        Fraction of edges with exactly two faces -- a graded version of the
        manifold flag, useful when comparing meshes under error.
    edge_face_histogram:
        ``face count -> number of edges``.
    covered_fraction:
        Fraction of the boundary group participating in the mesh (as a
        landmark or on a virtual edge's path); the complement is "nodes
        left outside the mesh", the quantity the paper relates to ``k``.
    mean_deviation, max_deviation:
        Distance (in radio ranges) from boundary-group nodes' true
        positions to the nearest mesh triangle; quantifies Fig. 1(j)-(l)'s
        "not seriously deformed" claim.  None when the mesh has no faces.
    """

    n_vertices: int
    n_edges: int
    n_faces: int
    euler_characteristic: int
    is_two_manifold: bool
    two_faced_edge_fraction: float
    edge_face_histogram: Dict[int, int]
    covered_fraction: float
    mean_deviation: Optional[float]
    max_deviation: Optional[float]

    def as_row(self) -> str:
        """Formatted one-line summary."""
        dev = (
            f"dev(mean/max)={self.mean_deviation:.2f}/{self.max_deviation:.2f}"
            if self.mean_deviation is not None
            else "dev=n/a"
        )
        return (
            f"V={self.n_vertices} E={self.n_edges} F={self.n_faces} "
            f"chi={self.euler_characteristic} "
            f"manifold={self.is_two_manifold} "
            f"2faced={self.two_faced_edge_fraction:.0%} "
            f"covered={self.covered_fraction:.0%} {dev}"
        )


def evaluate_mesh(network: Network, mesh: TriangularMesh) -> MeshQuality:
    """Compute :class:`MeshQuality` for a mesh built on ``network``."""
    counts = mesh.edge_face_counts()
    histogram: Dict[int, int] = {}
    for c in counts.values():
        histogram[c] = histogram.get(c, 0) + 1
    n_edges = len(mesh.edges)
    two_faced = histogram.get(2, 0) / n_edges if n_edges else 0.0

    group = mesh.group if mesh.group else list(mesh.vertices)
    covered = mesh.covered_nodes()
    covered_fraction = (
        sum(1 for g in group if g in covered) / len(group) if group else 0.0
    )

    triangles = mesh.triangles()
    mean_dev: Optional[float] = None
    max_dev: Optional[float] = None
    if triangles:
        positions = network.graph.positions
        deviations = []
        for node in group:
            p = positions[node]
            best = min(
                point_triangle_distance(
                    p, positions[a], positions[b], positions[c]
                )
                for a, b, c in triangles
            )
            deviations.append(best)
        mean_dev = float(np.mean(deviations))
        max_dev = float(np.max(deviations))

    return MeshQuality(
        n_vertices=len(mesh.vertices),
        n_edges=n_edges,
        n_faces=len(triangles),
        euler_characteristic=mesh.euler_characteristic(),
        is_two_manifold=mesh.is_two_manifold(),
        two_faced_edge_fraction=two_faced,
        edge_face_histogram=histogram,
        covered_fraction=covered_fraction,
        mean_deviation=mean_dev,
        max_deviation=max_dev,
    )
