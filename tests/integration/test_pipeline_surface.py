"""Integration tests: surface construction on detected boundaries."""

import pytest

from repro.evaluation.mesh_metrics import evaluate_mesh
from repro.surface.cdg import build_cdg
from repro.surface.cdm import build_cdm
from repro.surface.hops import GroupHops
from repro.surface.landmarks import assign_voronoi_cells, elect_landmarks
from repro.surface.mesh import TriangularMesh
from repro.surface.pipeline import SurfaceBuilder, SurfaceConfig
from repro.surface.triangulation import complete_triangulation


class TestSphereSurface:
    @pytest.fixture(scope="class")
    def record(self, sphere_network, sphere_detection):
        return SurfaceBuilder().build_records(
            sphere_network.graph, sphere_detection.groups
        )[0]

    def test_mesh_is_closed_two_manifold(self, record):
        assert record.mesh.is_two_manifold()

    def test_sphere_euler_characteristic(self, record):
        assert record.mesh.euler_characteristic() == 2
        assert record.mesh.genus() == 0

    def test_landmarks_k_separated(self, sphere_network, record):
        graph = sphere_network.graph
        members = set(record.mesh.group)
        landmarks = record.landmarks
        for i, a in enumerate(landmarks):
            hops = graph.bfs_hops([a], within=members)
            for b in landmarks[i + 1 :]:
                assert hops.get(b, 99) >= 4  # default k=4

    def test_cdm_subset_of_cdg(self, record):
        assert record.cdm_edges <= record.cdg_edges

    def test_every_edge_has_two_faces(self, record):
        counts = record.mesh.edge_face_counts()
        assert all(c == 2 for c in counts.values())

    def test_paths_connect_their_endpoints(self, record):
        for (u, v), path in record.mesh.paths.items():
            assert {path[0], path[-1]} == {u, v}

    def test_mesh_tracks_surface(self, sphere_network, record):
        quality = evaluate_mesh(sphere_network, record.mesh)
        # Deviation well below the sphere radius (~5-6 radio ranges).
        assert quality.mean_deviation < 1.0


class TestHoleSurfaces:
    def test_one_hole_meshes(self, one_hole_network, one_hole_detection):
        meshes = SurfaceBuilder().build(
            one_hole_network.graph, one_hole_detection.groups
        )
        assert len(meshes) == 2
        outer = evaluate_mesh(one_hole_network, meshes[0])
        assert outer.two_faced_edge_fraction > 0.9

    def test_k_affects_mesh_size(self, sphere_network, sphere_detection):
        sizes = {}
        for k in (3, 5):
            builder = SurfaceBuilder(SurfaceConfig(k=k, adaptive_k=False))
            meshes = builder.build(sphere_network.graph, sphere_detection.groups)
            sizes[k] = len(meshes[0].vertices)
        assert sizes[3] > sizes[5]

    def test_tiny_group_skipped(self, sphere_network):
        builder = SurfaceBuilder(SurfaceConfig(adaptive_k=False))
        assert builder.build(sphere_network.graph, [[0, 1]]) == []

    def test_edge_flip_disabled_keeps_saturated(self, sphere_network, sphere_detection):
        """Steps I-IV alone, without the edge-flip / hole-patch finalize
        passes, may leave saturated or open edges; the full pipeline at the
        same spacing must be at least as manifold."""
        full = SurfaceBuilder().build_records(
            sphere_network.graph, sphere_detection.groups
        )[0]
        k = full.effective_k
        hops = GroupHops(sphere_network.graph, sphere_detection.groups[0])
        landmarks = elect_landmarks(hops, k)
        cells = assign_voronoi_cells(hops, landmarks)
        cdm = build_cdm(hops, cells, build_cdg(hops, cells))
        edges, paths = complete_triangulation(
            hops, landmarks, cdm, candidate_radius=2 * k
        )
        bare = TriangularMesh(vertices=landmarks, group=sorted(hops.members))
        for u, v in sorted(edges):
            bare.add_edge(u, v, path=paths.get((u, v)))
        assert landmarks == full.landmarks

        frac_bare = sum(
            1 for c in bare.edge_face_counts().values() if c == 2
        ) / max(len(bare.edges), 1)
        frac_full = sum(
            1 for c in full.mesh.edge_face_counts().values() if c == 2
        ) / max(len(full.mesh.edges), 1)
        assert frac_full >= frac_bare
