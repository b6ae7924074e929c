"""Property: GroupHops agrees with NetworkGraph BFS on random small graphs.

The group is an arbitrary node subset, so it often splits the graph or
leaves out path endpoints and sources: unreachable pairs must give ``path``
None and ``distance`` (and the row entry) the ``len(members) + 1``
sentinel.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import NetworkGraph
from repro.surface.hops import GroupHops
from tests.property.test_prop_graph import positions

subsets = st.sets(st.integers(0, 19), min_size=1, max_size=20)


@given(positions, subsets)
@settings(max_examples=60, deadline=None)
def test_matches_bfs_and_shortest_path(pts, group):
    graph = NetworkGraph(pts, radio_range=1.0)
    hops = GroupHops(graph, group)
    sentinel = len(group) + 1
    for j in range(graph.n_nodes):
        reference = graph.bfs_hops([j], within=group)
        expected = [reference.get(n, sentinel) for n in sorted(group)]
        assert hops.row(j).tolist() == expected
        for i in range(graph.n_nodes):
            assert hops.path(i, j) == graph.shortest_path(i, j, within=group)
            if i != j:
                assert hops.distance(j, i) == reference.get(i, sentinel)


@given(positions)
@settings(max_examples=20, deadline=None)
def test_split_group_has_unreachable_pairs(pts):
    """Two far-apart copies of a point cloud in one group never connect."""
    doubled = np.vstack([pts, pts + 100.0])
    graph = NetworkGraph(doubled, radio_range=1.0)
    hops = GroupHops(graph, range(graph.n_nodes))
    assert hops.path(0, 20) is None
    assert hops.distance(0, 20) == graph.n_nodes + 1
    assert (hops.row(0)[20:] == graph.n_nodes + 1).all()
    assert hops.row(0)[:20].tolist() == [
        graph.bfs_hops([0]).get(n, graph.n_nodes + 1) for n in range(20)
    ]
