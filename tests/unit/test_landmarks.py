"""Unit tests for landmark election and Voronoi cells."""

import numpy as np
import pytest

from repro.network.graph import NetworkGraph
from repro.surface.hops import GroupHops
from repro.surface.landmarks import assign_voronoi_cells, elect_landmarks


@pytest.fixture
def ring_graph():
    """A 24-node ring (hop distance = ring distance)."""
    n = 24
    pts = [
        [np.cos(2 * np.pi * i / n) * 3.2, np.sin(2 * np.pi * i / n) * 3.2, 0.0]
        for i in range(n)
    ]
    return NetworkGraph(np.array(pts), radio_range=1.0)


@pytest.fixture
def ring(ring_graph):
    """Hop rows over the whole ring as one group."""
    return GroupHops(ring_graph, range(24))


class TestElection:
    def test_landmarks_k_separated(self, ring_graph, ring):
        for k in (2, 3, 4):
            landmarks = elect_landmarks(ring, k)
            for i, a in enumerate(landmarks):
                hops = ring_graph.bfs_hops([a], within=ring.members)
                for b in landmarks[i + 1 :]:
                    assert hops[b] >= k

    def test_maximality_every_node_covered(self, ring_graph, ring):
        k = 3
        landmarks = elect_landmarks(ring, k)
        hops = ring_graph.bfs_hops(landmarks, within=ring.members)
        assert all(hops[n] <= k - 1 for n in range(24))

    def test_k_one_selects_everyone(self, ring):
        assert elect_landmarks(ring, 1) == list(range(24))

    def test_lowest_ids_win(self, ring):
        landmarks = elect_landmarks(ring, 3)
        assert landmarks[0] == 0

    def test_invalid_k(self, ring):
        with pytest.raises(ValueError):
            elect_landmarks(ring, 0)

    def test_restricted_to_group(self, ring_graph):
        """Nodes outside the group never become landmarks."""
        group = list(range(0, 12))
        landmarks = elect_landmarks(GroupHops(ring_graph, group), 3)
        assert all(l in group for l in landmarks)


class TestVoronoiCells:
    def test_every_node_assigned(self, ring):
        landmarks = elect_landmarks(ring, 3)
        cells = assign_voronoi_cells(ring, landmarks)
        assert set(cells) == ring.members

    def test_landmarks_own_themselves(self, ring):
        landmarks = elect_landmarks(ring, 3)
        cells = assign_voronoi_cells(ring, landmarks)
        for l in landmarks:
            assert cells[l] == l

    def test_cells_are_contiguous(self, ring_graph, ring):
        """Each cell is connected through its own members alone."""
        cells = assign_voronoi_cells(ring, elect_landmarks(ring, 3))
        for landmark in set(cells.values()):
            cell = {n for n, owner in cells.items() if owner == landmark}
            assert set(ring_graph.bfs_hops([landmark], within=cell)) == cell

    def test_closest_assignment(self, ring_graph, ring):
        landmarks = elect_landmarks(ring, 4)
        cells = assign_voronoi_cells(ring, landmarks)
        for node, owner in cells.items():
            d_owner = ring_graph.bfs_hops([owner], within=ring.members)[node]
            for other in landmarks:
                d_other = ring_graph.bfs_hops([other], within=ring.members)[node]
                assert d_owner <= d_other

    def test_tie_breaks_to_smaller_id(self):
        """A 5-chain with landmarks at both ends: the middle joins the lower ID."""
        pts = np.array([[0.9 * i, 0, 0] for i in range(5)])
        g = NetworkGraph(pts, radio_range=1.0)
        cells = assign_voronoi_cells(GroupHops(g, range(5)), [0, 4])
        assert cells[2] == 0

    def test_equidistant_node_joins_smaller_landmark(self):
        """On an 11-chain, node 5 is two hops from landmarks 3 and 7 and
        goes to 3, however the landmarks are passed."""
        pts = np.array([[0.9 * i, 0, 0] for i in range(11)])
        hops = GroupHops(NetworkGraph(pts, radio_range=1.0), range(11))
        for landmarks in ([3, 7], [7, 3]):
            cells = assign_voronoi_cells(hops, landmarks)
            assert hops.distance(5, 3) == hops.distance(5, 7) == 2
            assert cells[5] == 3
            assert list(cells) == list(range(11))

    def test_unreached_nodes_are_dropped(self):
        """A group split in two: the half no landmark reaches gets no cell."""
        pts = np.array([[0.9 * i, 0, 0] for i in range(3)] +
                       [[50 + 0.9 * i, 0, 0] for i in range(3)])
        hops = GroupHops(NetworkGraph(pts, radio_range=1.0), range(6))
        assert assign_voronoi_cells(hops, [1]) == {0: 1, 1: 1, 2: 1}

    def test_landmark_outside_group_rejected(self, ring_graph):
        with pytest.raises(ValueError):
            assign_voronoi_cells(GroupHops(ring_graph, range(12)), [20])
