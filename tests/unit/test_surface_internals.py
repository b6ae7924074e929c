"""Focused unit tests for surface-construction internals."""

import numpy as np
import pytest

from repro.network.graph import NetworkGraph
from repro.surface.cdm import CDMResult
from repro.surface.hops import GroupHops
from repro.surface.mesh import TriangularMesh
from repro.surface.triangulation import (
    _blocked,
    _mark_path,
    candidate_pairs,
    complete_triangulation,
)


@pytest.fixture
def ring_graph():
    n = 24
    pts = [
        [np.cos(2 * np.pi * i / n) * 3.2, np.sin(2 * np.pi * i / n) * 3.2, 0.0]
        for i in range(n)
    ]
    return NetworkGraph(np.array(pts), radio_range=1.0)


class TestMarkAndBlock:
    def test_endpoint_edges_never_block(self):
        marks = {5: {(1, 9)}}
        # Path 1 -> 5 -> 9 carries a mark of edge (1, 9): both endpoints
        # belong to the packet, so no block.
        assert not _blocked(marks, [1, 5, 9], 1, 9)

    def test_independent_edge_blocks(self):
        marks = {5: {(2, 7)}}
        assert _blocked(marks, [1, 5, 9], 1, 9)

    def test_partial_overlap_does_not_block(self):
        """An edge sharing one endpoint with the packet cannot cross it."""
        marks = {5: {(1, 7)}}
        assert not _blocked(marks, [1, 5, 9], 1, 9)

    def test_mark_path_dilates_one_hop(self, ring_graph):
        from collections import defaultdict

        marks = defaultdict(set)
        hops = GroupHops(ring_graph, range(24))
        _mark_path(marks, (0, 4), [0, 1, 2, 3, 4], hops)
        # Intermediates 1,2,3 marked; their ring neighbors 0 and 4 dilated.
        for node in (0, 1, 2, 3, 4):
            assert (0, 4) in marks[node]
        # Far nodes unmarked.
        assert 12 not in marks


class TestCandidatePairs:
    def test_symmetric_minimum_distance(self, ring_graph):
        landmarks = [0, 6, 12, 18]
        hops = GroupHops(ring_graph, range(24))
        pairs = candidate_pairs(hops, landmarks, candidate_radius=12)
        # Ring distances: adjacent landmark pairs at 6 hops, opposite at 12.
        assert pairs[(0, 6)] == 6
        assert pairs[(0, 12)] == 12
        assert pairs[(6, 18)] == 12

    def test_radius_cutoff(self, ring_graph):
        landmarks = [0, 6, 12, 18]
        hops = GroupHops(ring_graph, range(24))
        pairs = candidate_pairs(hops, landmarks, candidate_radius=6)
        assert (0, 6) in pairs
        assert (0, 12) not in pairs


class TestCompleteTriangulationRing:
    def test_ring_with_empty_cdm_fills_ring_edges(self, ring_graph):
        """Starting from an empty CDM, short landmark pairs get connected."""
        landmarks = [0, 6, 12, 18]
        cdm = CDMResult()
        edges, paths = complete_triangulation(
            GroupHops(ring_graph, range(24)), landmarks, cdm, candidate_radius=6
        )
        # All four adjacent landmark pairs connect (6-hop ring arcs).
        assert (0, 6) in edges
        assert (6, 12) in edges
        assert (12, 18) in edges
        assert (0, 18) in edges
        for edge in edges:
            assert paths[edge][0] in edge and paths[edge][-1] in edge


class TestMeshGroupDefaults:
    def test_edge_flip_group_defaults_to_vertices(self, ring_graph):
        """A group of only the mesh vertices (every pair unreachable, so
        every length is the sentinel) still flips without raising."""
        from repro.surface.edgeflip import edge_flip

        mesh = TriangularMesh(vertices=[0, 6, 12, 18])
        for u in (0, 6, 12, 18):
            for v in (0, 6, 12, 18):
                if u < v:
                    mesh.add_edge(u, v, hop_length=1)
        edge_flip(mesh, GroupHops(ring_graph, mesh.vertices))  # must not raise
        assert mesh.is_two_manifold()
