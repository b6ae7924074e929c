"""Geometry kernel for the 3D boundary-detection reproduction.

This package provides the low-level geometric machinery that the paper's
algorithms are built on:

* :mod:`repro.geometry.primitives` -- vector helpers, circumcenters,
  pairwise distances.
* :mod:`repro.geometry.ballfit` -- the unit-ball-through-three-points solver
  used by the Unit Ball Fitting (UBF) algorithm (Sec. II of the paper).
* :mod:`repro.geometry.spatial_index` -- a uniform grid whose fixed-radius
  all-pairs sweep builds unit-ball graphs efficiently.
* :mod:`repro.geometry.mds` -- classical multidimensional scaling with
  shortest-path completion, the local-coordinates substrate (Sec. II-A3,
  step I).
* :mod:`repro.geometry.transforms` -- rigid alignment (Procrustes) used by
  tests and evaluation to compare local coordinate frames.
"""

from repro.geometry.ballfit import (
    BallFitResult,
    balls_through_three_points,
    balls_through_point_pairs,
    empty_ball_exists,
)
from repro.geometry.mds import (
    classical_mds,
    complete_distance_matrix,
    local_mds_embedding,
)
from repro.geometry.primitives import (
    circumcenter,
    circumradius,
    norm,
    normalize,
    pairwise_distances,
)
from repro.geometry.spatial_index import UniformGridIndex
from repro.geometry.transforms import (
    kabsch_align,
    procrustes_disparity,
    random_rotation_matrix,
)

__all__ = [
    "BallFitResult",
    "balls_through_three_points",
    "balls_through_point_pairs",
    "empty_ball_exists",
    "classical_mds",
    "complete_distance_matrix",
    "local_mds_embedding",
    "circumcenter",
    "circumradius",
    "norm",
    "normalize",
    "pairwise_distances",
    "UniformGridIndex",
    "kabsch_align",
    "procrustes_disparity",
    "random_rotation_matrix",
]
