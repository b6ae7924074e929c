"""SVG rendering of networks, boundary nodes, and meshes.

Produces the visual counterparts of the paper's figures (network model /
boundary nodes / triangular mesh) without any plotting dependency: plain
SVG text, orthographic projection with a configurable view rotation,
painter's-algorithm depth ordering.

Typical use::

    from repro.io.svg import SvgScene
    scene = SvgScene(graph.positions)
    scene.add_nodes(range(graph.n_nodes), radius=1.2, fill="#bbbbbb")
    scene.add_nodes(result.boundary, radius=2.0, fill="#cc3333")
    scene.add_mesh(mesh, graph, stroke="#2255cc")
    scene.write("boundary.svg")
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.network.graph import NetworkGraph
from repro.surface.mesh import TriangularMesh

PathLike = Union[str, Path]


def _rotation(yaw: float, pitch: float) -> np.ndarray:
    """View rotation: yaw about z, then pitch about x."""
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    return rx @ rz


class SvgScene:
    """Accumulates drawing primitives over a projected 3D point set.

    Parameters
    ----------
    positions:
        ``(n, 3)`` world positions; all drawing refers to these by index.
    size:
        Output image side length in pixels (square canvas).
    yaw, pitch:
        View rotation in radians before orthographic projection onto the
        xy-plane (the default gives a mildly tilted three-quarter view).
    margin:
        Canvas fraction left blank around the drawing.
    """

    def __init__(
        self,
        positions,
        *,
        size: int = 640,
        yaw: float = 0.6,
        pitch: float = -1.0,
        margin: float = 0.06,
    ):
        pts = np.asarray(positions, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("positions must be (n, 3)")
        self._size = int(size)
        rotated = pts @ _rotation(yaw, pitch).T
        self._depth = rotated[:, 2].copy()
        flat = rotated[:, :2]
        lo = flat.min(axis=0) if len(flat) else np.zeros(2)
        hi = flat.max(axis=0) if len(flat) else np.ones(2)
        span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
        usable = size * (1.0 - 2.0 * margin)
        self._scale = usable / span
        self._offset = np.array([size * margin, size * margin]) - lo * self._scale
        self._projected = flat * self._scale + self._offset
        # Flip y: SVG's y axis points down.
        self._projected[:, 1] = size - self._projected[:, 1]
        self._elements: List[Tuple[float, str]] = []

    def _point(self, node: int) -> Tuple[float, float]:
        x, y = self._projected[int(node)]
        return float(x), float(y)

    # ------------------------------------------------------------------
    # Primitives (each records its mean depth for painter's ordering)
    # ------------------------------------------------------------------

    def add_nodes(
        self,
        nodes: Iterable[int],
        *,
        radius: float = 1.5,
        fill: str = "#555555",
        opacity: float = 1.0,
    ) -> None:
        """Draw a set of nodes as filled circles."""
        for node in nodes:
            x, y = self._point(node)
            depth = float(self._depth[int(node)])
            self._elements.append(
                (
                    depth,
                    f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{radius:.1f}" '
                    f'fill="{fill}" fill-opacity="{opacity}"/>',
                )
            )

    def add_mesh(
        self,
        mesh: TriangularMesh,
        graph: Optional[NetworkGraph] = None,
        *,
        stroke: str = "#2255cc",
        fill: str = "#88aadd",
        fill_opacity: float = 0.25,
        width: float = 1.0,
    ) -> None:
        """Draw a landmark mesh: filled triangles plus edge strokes.

        ``graph`` is accepted for signature symmetry with the exporters;
        positions always come from the scene's own point set, which must
        contain the mesh's vertex IDs.
        """
        for a, b, c in mesh.triangles():
            pts = [self._point(n) for n in (a, b, c)]
            depth = float(np.mean([self._depth[int(n)] for n in (a, b, c)]))
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
            self._elements.append(
                (
                    depth,
                    f'<polygon points="{path}" fill="{fill}" '
                    f'fill-opacity="{fill_opacity}" stroke="{stroke}" '
                    f'stroke-width="{width}"/>',
                )
            )

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def to_svg(self) -> str:
        """Render the scene to an SVG document string."""
        body = "\n".join(
            element for _, element in sorted(self._elements, key=lambda e: e[0])
        )
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self._size}" height="{self._size}" '
            f'viewBox="0 0 {self._size} {self._size}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )

    def write(self, path: PathLike) -> None:
        """Write the SVG document to ``path``."""
        Path(path).write_text(self.to_svg())


def render_detection_svg(
    network,
    boundary: Iterable[int],
    path: PathLike,
    *,
    mesh: Optional[TriangularMesh] = None,
) -> None:
    """One-call figure: interior cloud, boundary nodes, optional mesh."""
    graph = network.graph
    scene = SvgScene(graph.positions)
    boundary = set(int(b) for b in boundary)
    interior = [n for n in range(graph.n_nodes) if n not in boundary]
    scene.add_nodes(interior, radius=1.0, fill="#bbbbbb", opacity=0.6)
    scene.add_nodes(boundary, radius=1.8, fill="#cc3333")
    if mesh is not None:
        scene.add_mesh(mesh)
    scene.write(path)
