"""GroupHops against the NetworkGraph BFS it replaces, on detected groups.

``GroupHops.row`` must hold exactly ``graph.bfs_hops`` over the group
(the sentinel where BFS does not reach), ``distance`` must read the same
hop counts, and ``path`` must reproduce ``graph.shortest_path`` without
running a BFS per query.  Sources and endpoints outside the group reach
nothing.  Rows come from the native BFS or, without native kernels, from
the numpy level-synchronous BFS; the cases parametrized over
:data:`tests.native_paths.PATHS` check both in one run.
"""

import numpy as np
import pytest

from repro.geometry.native import load_kernels
from repro.network.graph import NetworkGraph
from repro.surface.hops import GroupHops, _bfs_depths
from repro.surface.landmarks import elect_landmarks
from tests.native_paths import PATHS, on_path


@pytest.fixture(scope="module")
def groups(sphere_network, sphere_detection, one_hole_network, one_hole_detection):
    """(graph, group) for every detected group of both fixture networks."""
    return [(sphere_network.graph, g) for g in sphere_detection.groups] + [
        (one_hole_network.graph, g) for g in one_hole_detection.groups
    ]


def _outsiders(graph, hops, count=5):
    """A few graph nodes outside the group, plus IDs outside the graph."""
    outside = [n for n in range(graph.n_nodes) if n not in hops.members][:count]
    return outside + [-1, graph.n_nodes]


def bounded_bfs_election(graph, group, k):
    """The greedy election as it ran before hop rows: one bounded BFS ball
    per elected node, suppressing everything within ``k - 1`` hops."""
    members = set(group)
    landmarks, covered = [], set()
    for node in sorted(members):
        if node in covered:
            continue
        landmarks.append(node)
        covered.update(graph.bfs_hops([node], within=members, max_hops=k - 1))
    return landmarks


def test_fixture_groups_cover_small_and_large(groups):
    sizes = sorted(len(g) for _, g in groups)
    assert len(sizes) == 3
    assert sizes[0] < 100 < sizes[-1]


def test_floods_and_distances_match_bfs_every_pair(groups):
    for graph, group in groups:
        hops = GroupHops(graph, group)
        nodes = hops.nodes.tolist()
        assert nodes == sorted(group)
        for source in nodes:
            reference = graph.bfs_hops([source], within=hops.members)
            expected = [reference.get(n, hops.sentinel) for n in nodes]
            assert hops.row(source).tolist() == expected
        for u in nodes:
            row = hops.row(u)
            for column, v in enumerate(nodes):
                assert hops.distance(u, v) == row[column]


def test_outsiders_reach_nothing(groups):
    for graph, group in groups:
        hops = GroupHops(graph, group)
        member = hops.nodes[0]
        for outsider in _outsiders(graph, hops):
            assert (hops.row(outsider) == hops.sentinel).all()
            assert hops.distance(member, outsider) == hops.sentinel
            assert hops.distance(outsider, member) == hops.sentinel
            assert hops.path(member, outsider) is None
            assert hops.path(outsider, member) is None


def test_paths_match_shortest_path(groups):
    """Every ordered pair of the small hole group; on the large groups,
    every landmark pair (the paths Steps III and IV ask for) and every
    member towards the first landmark."""
    for graph, group in groups:
        hops = GroupHops(graph, group)
        members = hops.nodes.tolist()
        if len(members) < 100:
            pairs = [(i, j) for i in members for j in members]
        else:
            landmarks = elect_landmarks(hops, 4)
            pairs = [(i, j) for i in landmarks for j in landmarks]
            pairs += [(i, landmarks[0]) for i in members]
        for i, j in pairs:
            assert hops.path(i, j) == graph.shortest_path(i, j, within=hops.members)


def test_election_matches_bounded_bfs_oracle(groups):
    for graph, group in groups:
        hops = GroupHops(graph, group)
        for k in range(2, 7):
            assert elect_landmarks(hops, k) == bounded_bfs_election(graph, group, k)


def test_rows_are_shared_and_read_only(groups):
    graph, group = groups[0]
    hops = GroupHops(graph, group)
    row = hops.row(hops.nodes[0])
    assert hops.row(hops.nodes[0]) is row
    with pytest.raises(ValueError):
        row[0] = 1


@pytest.mark.parametrize("size, dtype", [(126, np.int8), (127, np.int16),
                                         (32766, np.int16), (32767, np.int32)])
def test_row_dtype_is_smallest_signed_holding_sentinel(size, dtype):
    """``len(members) + 1`` decides the dtype: int16 up to 32 766 members."""
    graph = NetworkGraph(np.c_[2.0 * np.arange(size), np.zeros((size, 2))])
    hops = GroupHops(graph, range(size))
    row = hops.row(0)
    assert row.dtype == dtype
    assert row[0] == 0 and (row[1:] == size + 1).all()


#: Eight nodes on a line, 0.9 apart: a path graph.  Leaving out nodes 3
#: and 6 splits the group into {0, 1, 2}, {4, 5} and {7}.
LINE = NetworkGraph(np.c_[0.9 * np.arange(8), np.zeros((8, 2))])


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("group", [{0, 1, 2, 4, 5, 7}, {5}, set(range(8))])
def test_rows_and_paths_on_both_bfs_paths(path, group):
    """Unreachable members, non-member sources and a one-member group."""
    with on_path(path):
        hops = GroupHops(LINE, group)
        sentinel = len(group) + 1
        ids = range(-1, LINE.n_nodes + 1)
        for j in ids:
            reference = (
                LINE.bfs_hops([j], within=group) if j in group else {}
            )
            expected = [reference.get(n, sentinel) for n in sorted(group)]
            assert hops.row(j).tolist() == expected
            for i in ids:
                expected_path = (
                    LINE.shortest_path(i, j, within=group)
                    if i in group and j in group
                    else None
                )
                assert hops.path(i, j) == expected_path


@pytest.mark.skipif(load_kernels() is None, reason="no native kernels")
def test_native_and_numpy_bfs_depths_agree(groups):
    kernels = load_kernels()
    for graph, group in groups:
        hops = GroupHops(graph, group)
        for column in range(0, hops.nodes.size, 7):
            native_depth = kernels.bfs_depths(
                hops.indptr, hops.indices, column, hops.sentinel
            )
            numpy_depth = _bfs_depths(hops.indptr, hops.indices, column, hops.sentinel)
            assert native_depth.tobytes() == numpy_depth.tobytes()


@pytest.mark.skipif(load_kernels() is None, reason="no native kernels")
def test_native_bfs_depths_rejects_bad_input():
    hops = GroupHops(LINE, set(range(8)))
    kernels = load_kernels()
    for source in (-1, 8):
        with pytest.raises(ValueError):
            kernels.bfs_depths(hops.indptr, hops.indices, source, 9)
    with pytest.raises(ValueError):
        kernels.bfs_depths(hops.indptr, hops.indices[:-1], 0, 9)


def test_induced_subgraph_columns_ascending(groups):
    for graph, group in groups:
        hops = GroupHops(graph, group)
        assert hops.indptr.dtype == hops.indices.dtype == np.int64
        for column, node in enumerate(hops.nodes.tolist()):
            nbrs = hops.indices[hops.indptr[column] : hops.indptr[column + 1]]
            expected = [n for n in graph.neighbors(node).tolist() if n in hops.members]
            assert hops.nodes[nbrs].tolist() == sorted(expected)
