"""Unit tests for triangulation completion (Step IV)."""

import numpy as np
import pytest

from repro.network.graph import NetworkGraph
from repro.surface.cdg import build_cdg
from repro.surface.cdm import build_cdm
from repro.surface.hops import GroupHops
from repro.surface.landmarks import assign_voronoi_cells, elect_landmarks
from repro.surface.triangulation import candidate_pairs, complete_triangulation


@pytest.fixture
def sphere_boundary(sphere_network, sphere_detection):
    """Hop rows of the session sphere network's outer boundary group."""
    return GroupHops(sphere_network.graph, sphere_detection.groups[0])


def _cdm_setup(hops, k):
    landmarks = elect_landmarks(hops, k)
    cells = assign_voronoi_cells(hops, landmarks)
    cdg = build_cdg(hops, cells)
    cdm = build_cdm(hops, cells, cdg)
    return landmarks, cells, cdg, cdm


class TestCandidatePairs:
    def test_within_radius_only(self, sphere_boundary):
        landmarks = elect_landmarks(sphere_boundary, 4)
        pairs = candidate_pairs(sphere_boundary, landmarks, candidate_radius=8)
        for (u, v), dist in pairs.items():
            assert dist <= 8
            assert u in landmarks and v in landmarks

    def test_distances_match_bfs(self, sphere_boundary):
        hops = sphere_boundary
        landmarks = elect_landmarks(hops, 4)
        pairs = candidate_pairs(hops, landmarks, candidate_radius=8)
        for (u, v), dist in list(pairs.items())[:10]:
            assert hops.graph.bfs_hops([u], within=hops.members)[v] == dist


class TestCompleteTriangulation:
    def test_superset_of_cdm(self, sphere_boundary):
        landmarks, cells, cdg, cdm = _cdm_setup(sphere_boundary, 4)
        edges, paths = complete_triangulation(
            sphere_boundary, landmarks, cdm, candidate_radius=8
        )
        assert cdm.edges <= edges
        for edge in edges:
            assert edge in paths

    def test_adds_edges_beyond_cdm(self, sphere_boundary):
        landmarks, cells, cdg, cdm = _cdm_setup(sphere_boundary, 4)
        edges, _ = complete_triangulation(
            sphere_boundary, landmarks, cdm, candidate_radius=8
        )
        assert len(edges) > len(cdm.edges)

    def test_no_edge_through_other_landmark(self, sphere_boundary):
        landmarks, cells, cdg, cdm = _cdm_setup(sphere_boundary, 4)
        edges, paths = complete_triangulation(
            sphere_boundary, landmarks, cdm, candidate_radius=8
        )
        landmark_set = set(landmarks)
        for edge, path in paths.items():
            if edge in cdm.edges:
                continue  # CDM paths predate the rule
            assert not (set(path[1:-1]) & landmark_set)

    def test_paths_stay_inside_group(self, sphere_boundary):
        landmarks, cells, cdg, cdm = _cdm_setup(sphere_boundary, 4)
        _, paths = complete_triangulation(
            sphere_boundary, landmarks, cdm, candidate_radius=8
        )
        for path in paths.values():
            assert set(path) <= sphere_boundary.members

    def test_deterministic(self, sphere_boundary):
        landmarks, cells, cdg, cdm = _cdm_setup(sphere_boundary, 4)
        e1, _ = complete_triangulation(
            sphere_boundary, landmarks, cdm, candidate_radius=8
        )
        e2, _ = complete_triangulation(
            sphere_boundary, landmarks, cdm, candidate_radius=8
        )
        assert e1 == e2
