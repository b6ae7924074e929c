"""Mesh export to Wavefront OBJ."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.network.graph import NetworkGraph
from repro.surface.mesh import TriangularMesh

PathLike = Union[str, Path]


def _mesh_geometry(mesh: TriangularMesh, graph: NetworkGraph):
    """Vertex array (landmark positions) and re-indexed triangle list."""
    index: Dict[int, int] = {v: i for i, v in enumerate(mesh.vertices)}
    vertices = np.array([graph.position(v) for v in mesh.vertices])
    faces = [
        (index[a], index[b], index[c]) for a, b, c in mesh.triangles()
    ]
    return vertices, faces


def export_mesh_obj(mesh: TriangularMesh, graph: NetworkGraph, path: PathLike) -> None:
    """Write the landmark mesh as a Wavefront OBJ file (1-based indices)."""
    vertices, faces = _mesh_geometry(mesh, graph)
    lines = ["# repro boundary mesh"]
    for x, y, z in vertices:
        lines.append(f"v {x:.6f} {y:.6f} {z:.6f}")
    for a, b, c in faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    Path(path).write_text("\n".join(lines) + "\n")
