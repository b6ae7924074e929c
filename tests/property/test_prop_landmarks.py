"""Property-based tests for landmark election invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import NetworkGraph
from repro.surface.hops import GroupHops
from repro.surface.landmarks import assign_voronoi_cells, elect_landmarks


@st.composite
def random_group(draw):
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(8, 30))
    pts = rng.uniform(0, 2.5, size=(n, 3))
    graph = NetworkGraph(pts, radio_range=1.0)
    # Use the largest connected component as the group.
    group = max(graph.connected_components(), key=len)
    k = draw(st.integers(2, 4))
    return graph, group, k


class TestElectionInvariants:
    @given(random_group())
    @settings(max_examples=60, deadline=None)
    def test_pairwise_separation(self, setup):
        graph, group, k = setup
        landmarks = elect_landmarks(GroupHops(graph, group), k)
        members = set(group)
        for i, a in enumerate(landmarks):
            hops = graph.bfs_hops([a], within=members)
            for b in landmarks[i + 1 :]:
                assert hops.get(b, 10**9) >= k

    @given(random_group())
    @settings(max_examples=60, deadline=None)
    def test_maximality(self, setup):
        """Every member is within k-1 hops of some landmark."""
        graph, group, k = setup
        landmarks = elect_landmarks(GroupHops(graph, group), k)
        hops = graph.bfs_hops(landmarks, within=set(group))
        for node in group:
            assert hops.get(node, 10**9) <= k - 1

    @given(random_group())
    @settings(max_examples=60, deadline=None)
    def test_cells_choose_a_closest_landmark(self, setup):
        graph, group, k = setup
        hops = GroupHops(graph, group)
        landmarks = elect_landmarks(hops, k)
        cells = assign_voronoi_cells(hops, landmarks)
        members = set(group)
        landmark_hops = {
            lm: graph.bfs_hops([lm], within=members) for lm in landmarks
        }
        for node, owner in cells.items():
            d_owner = landmark_hops[owner][node]
            best = min(
                h[node] for h in landmark_hops.values() if node in h
            )
            assert d_owner == best

    @given(random_group())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, setup):
        graph, group, k = setup
        hops = GroupHops(graph, group)
        assert elect_landmarks(hops, k) == elect_landmarks(hops, k)
