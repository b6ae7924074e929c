"""Depth ordering and projection geometry of the SVG renderer."""

import re

import numpy as np

from repro.io.svg import SvgScene
from repro.surface.mesh import TriangularMesh


class TestPaintersAlgorithm:
    def test_farther_elements_render_first(self):
        """With pitch=0, yaw=0 the view axis is +z: lower z renders first."""
        positions = np.array([[0, 0, -5.0], [0, 0, 5.0], [1, 1, 0.0]])
        scene = SvgScene(positions, yaw=0.0, pitch=0.0)
        scene.add_nodes([1], fill="#front")
        scene.add_nodes([0], fill="#back")
        svg = scene.to_svg()
        assert svg.index("#back") < svg.index("#front")

    def test_mesh_depth_is_triangle_mean(self):
        positions = np.array(
            [[0, 0, -5.0], [0, 0, 5.0], [1, 0, 0.0], [0, 1, 4.9]]
        )
        scene = SvgScene(positions, yaw=0.0, pitch=0.0)
        mesh = TriangularMesh(vertices=[0, 1, 2])
        for u, v in ((0, 1), (1, 2), (0, 2)):
            mesh.add_edge(u, v)
        scene.add_mesh(mesh)  # mean depth 0, though one vertex is at 5
        scene.add_nodes([3], fill="#node")  # depth 4.9 -> in front
        svg = scene.to_svg()
        assert svg.index("<polygon") < svg.index("#node")


class TestProjectionScaling:
    def test_aspect_preserved(self):
        """A wide flat layout scales by its larger extent."""
        positions = np.array(
            [[0, 0, 0], [10.0, 0, 0], [0, 1.0, 0]], dtype=float
        )
        scene = SvgScene(positions, size=500, yaw=0.0, pitch=0.0, margin=0.0)
        scene.add_nodes([0, 1, 2])
        svg = scene.to_svg()
        xs = [float(m) for m in re.findall(r'cx="([\d.]+)"', svg)]
        assert max(xs) - min(xs) <= 500 + 1e-6
        # x-span uses the full canvas; y-span is proportionally small.
        ys = [float(m) for m in re.findall(r'cy="([\d.]+)"', svg)]
        assert (max(ys) - min(ys)) < (max(xs) - min(xs)) / 5
