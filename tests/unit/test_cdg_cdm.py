"""Unit tests for CDG construction and the CDM path-validity test."""

import numpy as np
import pytest

from repro.network.graph import NetworkGraph
from repro.surface.cdg import build_cdg
from repro.surface.cdm import build_cdm, path_is_valid
from repro.surface.hops import GroupHops
from repro.surface.landmarks import assign_voronoi_cells, elect_landmarks


@pytest.fixture
def ring_setup():
    n = 24
    pts = [
        [np.cos(2 * np.pi * i / n) * 3.2, np.sin(2 * np.pi * i / n) * 3.2, 0.0]
        for i in range(n)
    ]
    graph = NetworkGraph(np.array(pts), radio_range=1.0)
    hops = GroupHops(graph, range(n))
    landmarks = elect_landmarks(hops, 4)
    cells = assign_voronoi_cells(hops, landmarks)
    return hops, landmarks, cells


def cdg_by_scan(graph, members, cells):
    """Step II as a per-node scan: every in-group neighbour in another cell."""
    edges = set()
    for node in sorted(members):
        own = cells.get(node)
        for nbr in graph.neighbors(node).tolist():
            other = cells.get(nbr)
            if nbr in members and own is not None and other not in (None, own):
                edges.add((min(own, other), max(own, other)))
    return edges


class TestBuildCDG:
    def test_ring_cdg_is_a_cycle(self, ring_setup):
        hops, landmarks, cells = ring_setup
        cdg = build_cdg(hops, cells)
        # On a ring, landmark cells touch exactly their two ring neighbors.
        degree = {l: 0 for l in landmarks}
        for u, v in cdg:
            degree[u] += 1
            degree[v] += 1
        assert all(d == 2 for d in degree.values())
        assert len(cdg) == len(landmarks)

    def test_no_self_edges(self, ring_setup):
        hops, landmarks, cells = ring_setup
        for u, v in build_cdg(hops, cells):
            assert u != v

    def test_matches_per_node_scan(self, sphere_network, sphere_detection):
        graph = sphere_network.graph
        for group in sphere_detection.groups:
            hops = GroupHops(graph, group)
            for k in (3, 4, 5):
                cells = assign_voronoi_cells(hops, elect_landmarks(hops, k))
                assert build_cdg(hops, cells) == cdg_by_scan(graph, hops.members, cells)

    def test_cells_outside_the_group_are_ignored(self, ring_setup):
        """Labels of non-members (and of IDs outside the graph) never enter
        the CDG, and never land on another node's column."""
        hops, _, _ = ring_setup
        half = GroupHops(hops.graph, range(12))
        cells = {n: n // 4 for n in range(24)}
        expected = cdg_by_scan(hops.graph, half.members, cells)
        assert build_cdg(half, {**cells, -1: 7, 99: 8}) == expected == {(0, 1), (1, 2)}

    def test_single_cell_yields_no_edges(self, ring_setup):
        hops, _, _ = ring_setup
        cells = {n: 0 for n in hops.members}
        assert build_cdg(hops, cells) == set()


class TestPathValidity:
    def test_valid_two_cell_path(self):
        cells = {0: 0, 1: 0, 2: 5, 5: 5}
        assert path_is_valid([0, 1, 2, 5], cells, 0, 5)

    def test_rejects_third_cell(self):
        cells = {0: 0, 1: 9, 5: 5}
        assert not path_is_valid([0, 1, 5], cells, 0, 5)

    def test_rejects_interleaving(self):
        cells = {0: 0, 1: 5, 2: 0, 5: 5}
        assert not path_is_valid([0, 1, 2, 5], cells, 0, 5)

    def test_direct_landmark_to_landmark(self):
        cells = {0: 0, 5: 5}
        assert path_is_valid([0, 5], cells, 0, 5)


class TestBuildCDM:
    def test_ring_cdm_keeps_cycle(self, ring_setup):
        hops, landmarks, cells = ring_setup
        cdg = build_cdg(hops, cells)
        cdm = build_cdm(hops, cells, cdg)
        # On a clean ring every CDG edge passes the validity test.
        assert cdm.edges == cdg
        assert cdm.rejected == set()

    def test_paths_recorded_for_accepted_edges(self, ring_setup):
        hops, landmarks, cells = ring_setup
        cdg = build_cdg(hops, cells)
        cdm = build_cdm(hops, cells, cdg)
        for edge in cdm.edges:
            path = cdm.paths[edge]
            assert path[0] == edge[0] or path[0] == edge[1]
            assert set(edge) == {path[0], path[-1]}

    def test_on_path_marks_intermediates_only(self, ring_setup):
        hops, landmarks, cells = ring_setup
        cdg = build_cdg(hops, cells)
        cdm = build_cdm(hops, cells, cdg)
        assert not (cdm.on_path & set(landmarks))

    def test_edges_union_rejected_covers_cdg(self, ring_setup):
        hops, landmarks, cells = ring_setup
        cdg = build_cdg(hops, cells)
        cdm = build_cdm(hops, cells, cdg)
        assert cdm.edges | cdm.rejected == cdg
