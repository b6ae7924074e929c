"""Deterministic shortest-path tie-breaking: exhaustive small cases."""

import numpy as np

from repro.network.graph import NetworkGraph


def _graph_from_edges(n, edges):
    """Build a NetworkGraph with explicit adjacency (positions unused)."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return NetworkGraph(np.zeros((n, 3)), adjacency=adjacency)


class TestTieBreaking:
    def test_two_parallel_paths_lowest_wins(self):
        # 0 -> {1, 2} -> 3: path through 1 must win.
        g = _graph_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert g.shortest_path(0, 3) == [0, 1, 3]

    def test_three_parallel_paths(self):
        g = _graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        assert g.shortest_path(0, 4) == [0, 1, 4]

    def test_longer_path_with_lower_ids_loses(self):
        # Short path via high-ID node 5 beats long path via low IDs.
        g = _graph_from_edges(
            6, [(0, 5), (5, 4), (0, 1), (1, 2), (2, 3), (3, 4)]
        )
        assert g.shortest_path(0, 4) == [0, 5, 4]

    def test_first_discovered_parent_not_lowest_id(self):
        # Both 0-1-9-4 and 0-2-3-4 are shortest; 4's lowest-ID parent is 3,
        # but the lexicographically smallest path read from 0 goes via 1.
        g = _graph_from_edges(
            10, [(0, 1), (0, 2), (1, 9), (2, 3), (9, 4), (3, 4)]
        )
        assert g.shortest_path(0, 4) == [0, 1, 9, 4]

    def test_symmetric_paths_reverse_consistency(self):
        """Forward and reverse paths have equal length (not necessarily the
        same nodes -- tie-breaking is direction-dependent by design)."""
        g = _graph_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        forward = g.shortest_path(0, 3)
        backward = g.shortest_path(3, 0)
        assert len(forward) == len(backward)


class TestWithinSemantics:
    def test_within_includes_endpoints(self):
        g = _graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.shortest_path(0, 3, within={0, 1, 2, 3}) == [0, 1, 2, 3]

    def test_within_missing_endpoint(self):
        g = _graph_from_edges(3, [(0, 1), (1, 2)])
        assert g.shortest_path(0, 2, within={0, 1}) is None
