"""Unit tests for NetworkGraph."""

import numpy as np
import pytest

from repro.network.graph import NetworkGraph


@pytest.fixture
def chain_graph():
    """Five nodes on a line, spacing 0.9 (each adjacent pair connected)."""
    positions = np.array([[0.9 * i, 0.0, 0.0] for i in range(5)])
    return NetworkGraph(positions, radio_range=1.0)


@pytest.fixture
def two_cluster_graph():
    """Two separated triangles (disconnected graph)."""
    a = np.array([[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0]], dtype=float)
    b = a + np.array([10.0, 0, 0])
    return NetworkGraph(np.vstack([a, b]), radio_range=1.0)


class TestConstruction:
    def test_adjacency_from_positions(self, chain_graph):
        assert list(chain_graph.neighbors(0)) == [1]
        assert list(chain_graph.neighbors(2)) == [1, 3]

    def test_explicit_adjacency_roundtrip(self):
        positions = np.zeros((3, 3))
        g = NetworkGraph(positions, adjacency=[[1], [0, 2], [1]])
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 2)

    def test_adjacency_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            NetworkGraph(np.zeros((3, 3)), adjacency=[[1], [0]])

    def test_invalid_radio_range(self):
        with pytest.raises(ValueError):
            NetworkGraph(np.zeros((1, 3)), radio_range=0.0)

    def test_positions_read_only(self, chain_graph):
        with pytest.raises(ValueError):
            chain_graph.positions[0, 0] = 5.0


class TestBasicQueries:
    def test_degrees(self, chain_graph):
        assert chain_graph.degrees().tolist() == [1, 2, 2, 2, 1]

    def test_edges_and_count(self, chain_graph):
        assert list(chain_graph.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert chain_graph.n_edges == 4

    def test_distance(self, chain_graph):
        assert chain_graph.distance(0, 2) == pytest.approx(1.8)

    def test_len(self, chain_graph):
        assert len(chain_graph) == 5


class TestBFS:
    def test_hops_from_single_source(self, chain_graph):
        hops = chain_graph.bfs_hops([0])
        assert hops == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_hops_multi_source(self, chain_graph):
        hops = chain_graph.bfs_hops([0, 4])
        assert hops[2] == 2
        assert hops[1] == 1
        assert hops[3] == 1

    def test_max_hops_cutoff(self, chain_graph):
        hops = chain_graph.bfs_hops([0], max_hops=2)
        assert set(hops) == {0, 1, 2}

    def test_within_restriction(self, chain_graph):
        hops = chain_graph.bfs_hops([0], within={0, 1, 3, 4})
        assert set(hops) == {0, 1}  # node 2 missing breaks the chain

    def test_sources_outside_within_ignored(self, chain_graph):
        hops = chain_graph.bfs_hops([2], within={0, 1})
        assert hops == {}


class TestShortestPath:
    def test_trivial(self, chain_graph):
        assert chain_graph.shortest_path(2, 2) == [2]

    def test_chain_path(self, chain_graph):
        assert chain_graph.shortest_path(0, 3) == [0, 1, 2, 3]

    def test_unreachable_returns_none(self, two_cluster_graph):
        assert two_cluster_graph.shortest_path(0, 3) is None

    def test_within_restriction(self, chain_graph):
        assert chain_graph.shortest_path(0, 3, within={0, 1, 3}) is None

    def test_lowest_id_tiebreak(self):
        """Diamond 0-1-3, 0-2-3: the path through node 1 must win."""
        positions = np.array(
            [[0, 0, 0], [0.9, 0.3, 0], [0.9, -0.3, 0], [1.8, 0, 0]], dtype=float
        )
        g = NetworkGraph(positions, radio_range=1.0)
        assert g.shortest_path(0, 3) == [0, 1, 3]


class TestComponents:
    def test_connected_graph_single_component(self, chain_graph):
        assert chain_graph.is_connected()
        assert chain_graph.connected_components() == [[0, 1, 2, 3, 4]]

    def test_disconnected_components(self, two_cluster_graph):
        assert not two_cluster_graph.is_connected()
        comps = two_cluster_graph.connected_components()
        assert comps == [[0, 1, 2], [3, 4, 5]]

    def test_within_components(self, chain_graph):
        comps = chain_graph.connected_components(within={0, 1, 3, 4})
        assert comps == [[0, 1], [3, 4]]

    def test_empty_graph_connected(self):
        assert NetworkGraph(np.zeros((0, 3))).is_connected()
