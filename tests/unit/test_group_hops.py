"""GroupHops against the NetworkGraph BFS it memoizes, on detected groups.

``GroupHops.hops_from`` must return exactly ``graph.bfs_hops`` (dict
order included, since Voronoi cells inherit it), ``distance`` must read
the same hop counts, and ``path`` must reproduce ``graph.shortest_path``
without running a BFS per query.
"""

import pytest

from repro.surface.hops import GroupHops
from repro.surface.landmarks import elect_landmarks


@pytest.fixture(scope="module")
def groups(sphere_network, sphere_detection, one_hole_network, one_hole_detection):
    """(graph, group) for every detected group of both fixture networks."""
    return [(sphere_network.graph, g) for g in sphere_detection.groups] + [
        (one_hole_network.graph, g) for g in one_hole_detection.groups
    ]


def test_fixture_groups_cover_small_and_large(groups):
    sizes = sorted(len(g) for _, g in groups)
    assert len(sizes) == 3
    assert sizes[0] < 100 < sizes[-1]


def test_floods_and_distances_match_bfs_every_pair(groups):
    for graph, group in groups:
        hops = GroupHops(graph, group)
        for source in sorted(hops.members):
            reference = graph.bfs_hops([source], within=hops.members)
            assert list(hops.hops_from(source).items()) == list(reference.items())
        for u in sorted(hops.members):
            for v in sorted(hops.members):
                if u != v:
                    assert hops.distance(u, v) == hops.hops_from(u)[v]


def test_paths_match_shortest_path(groups):
    """Every ordered pair of the small hole group; on the large groups,
    every landmark pair (the paths Steps III and IV ask for) and every
    member towards the first landmark."""
    for graph, group in groups:
        hops = GroupHops(graph, group)
        members = sorted(hops.members)
        if len(members) < 100:
            pairs = [(i, j) for i in members for j in members]
        else:
            landmarks = elect_landmarks(hops, 4)
            pairs = [(i, j) for i in landmarks for j in landmarks]
            pairs += [(i, landmarks[0]) for i in members]
        for i, j in pairs:
            assert hops.path(i, j) == graph.shortest_path(i, j, within=hops.members)
