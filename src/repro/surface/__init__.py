"""Triangular boundary-surface construction (Sec. III of the paper).

Turns a group of detected boundary nodes into a locally planarized
2-manifold triangular mesh in five localized steps:

I.   landmark election (k-hop separation) and combinatorial Voronoi cells
     (:mod:`repro.surface.landmarks`);
II.  Combinatorial Delaunay Graph from adjacent cells
     (:mod:`repro.surface.cdg`);
III. Combinatorial Delaunay Map via the shortest-path validity test
     (:mod:`repro.surface.cdm`);
IV.  triangulation completion with the crossing-avoidance drop rule
     (:mod:`repro.surface.triangulation`);
V.   edge flips so no edge carries more than two triangular faces
     (:mod:`repro.surface.edgeflip`).

:class:`repro.surface.pipeline.SurfaceBuilder` chains all five; every step
reads hop distances and paths from the per-group hop rows of one
:class:`repro.surface.hops.GroupHops`.
"""

from repro.surface.cdg import build_cdg
from repro.surface.cdm import CDMResult, build_cdm
from repro.surface.edgeflip import edge_flip
from repro.surface.holepatch import patch_holes
from repro.surface.hops import GroupHops
from repro.surface.landmarks import assign_voronoi_cells, elect_landmarks
from repro.surface.mesh import TriangularMesh
from repro.surface.pipeline import (
    SurfaceBuildRecord,
    SurfaceBuilder,
    SurfaceConfig,
    build_boundary_surfaces,
)
from repro.surface.triangulation import complete_triangulation

__all__ = [
    "GroupHops",
    "TriangularMesh",
    "elect_landmarks",
    "assign_voronoi_cells",
    "build_cdg",
    "build_cdm",
    "CDMResult",
    "complete_triangulation",
    "edge_flip",
    "patch_holes",
    "SurfaceBuilder",
    "SurfaceBuildRecord",
    "SurfaceConfig",
    "build_boundary_surfaces",
]
