"""Property-based tests for NetworkGraph invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.network.graph import NetworkGraph
from tests.native_paths import PATHS, on_path

coord = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False, width=32)
positions = arrays(np.float64, (20, 3), elements=coord)


class TestGraphInvariants:
    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_adjacency_symmetric(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        for u in range(g.n_nodes):
            for v in g.neighbors(u):
                assert g.has_edge(int(v), u)

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_edges_within_radio_range(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        for u, v in g.edges():
            assert g.distance(u, v) <= 1.0 + 1e-9

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_components_partition_nodes(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        comps = g.connected_components()
        seen = [n for comp in comps for n in comp]
        assert sorted(seen) == list(range(g.n_nodes))

    @given(positions, st.integers(0, 19), st.integers(0, 19))
    @settings(max_examples=40, deadline=None)
    def test_shortest_path_length_matches_bfs(self, pts, a, b):
        g = NetworkGraph(pts, radio_range=1.0)
        path = g.shortest_path(a, b)
        hops = g.bfs_hops([a])
        if path is None:
            assert b not in hops
        else:
            assert len(path) - 1 == hops[b]
            # Path is a real walk.
            for u, v in zip(path, path[1:]):
                assert g.has_edge(u, v)

    @given(positions, st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_bfs_max_hops_prefix(self, pts, cap):
        """Capped BFS equals the full BFS restricted to <= cap."""
        g = NetworkGraph(pts, radio_range=1.0)
        full = g.bfs_hops([0])
        capped = g.bfs_hops([0], max_hops=cap)
        assert capped == {n: d for n, d in full.items() if d <= cap}


class TestComponentsOnBothPaths:
    """Components and connectivity, native shared-visited BFS and deque
    fallback alike, against per-component ``bfs_hops`` floods."""

    @pytest.mark.parametrize("path", PATHS)
    @given(positions, st.one_of(st.none(), st.sets(st.integers(0, 19))))
    @settings(max_examples=40, deadline=None)
    def test_components_are_restricted_floods(self, path, pts, within):
        g = NetworkGraph(pts, radio_range=1.0)
        with on_path(path):
            comps = g.connected_components(within=within)
            connected = g.is_connected()
        nodes = list(range(g.n_nodes)) if within is None else sorted(within)
        assert sorted(n for comp in comps for n in comp) == nodes
        assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
        for comp in comps:
            assert comp == sorted(g.bfs_hops([comp[0]], within=within))
        assert connected == (len(g.bfs_hops([0])) == g.n_nodes)


class TestCSRDerivedViews:
    """The CSR-backed accessors must agree with first-principles recomputation."""

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_degrees_match_neighbor_counts(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        expected = np.array([g.neighbors(u).size for u in range(g.n_nodes)])
        assert np.array_equal(g.degrees(), expected)

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_n_edges_matches_edge_list(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        listed = list(g.edges())
        assert g.n_edges == len(listed)
        assert g.n_edges == int(g.degrees().sum()) // 2

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_edge_array_matches_iterator_order(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        listed = list(g.edges())
        arr = g.edge_array()
        assert arr.shape == (len(listed), 2)
        assert [tuple(row) for row in arr.tolist()] == listed
        expected = sorted(
            (u, int(v)) for u in range(g.n_nodes) for v in g.neighbors(u) if u < v
        )
        assert listed == expected

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_csr_rows_are_sorted_neighbors(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        indptr, indices = g.csr()
        for u in range(g.n_nodes):
            row = indices[indptr[u] : indptr[u + 1]]
            assert np.array_equal(row, g.neighbors(u))


def _rows(triple):
    """Split the sweep's CSR triple into per-source ``(nodes, hops)``."""
    ptr, nodes, hops = triple
    return [
        (nodes[ptr[i] : ptr[i + 1]], hops[ptr[i] : ptr[i + 1]])
        for i in range(ptr.size - 1)
    ]


def _assert_rows_match_oracle(g, sources, triple, hops):
    ptr, nodes, hop_counts = triple
    assert ptr.size == len(sources) + 1 and ptr[0] == 0
    assert nodes.size == hop_counts.size == ptr[-1]
    for source, (row_nodes, row_hops) in zip(sources, _rows(triple)):
        assert np.all(np.diff(row_nodes) > 0)
        oracle = g.bfs_hops([source], max_hops=hops)
        assert {int(n): int(h) for n, h in zip(row_nodes, row_hops)} == oracle


class TestKHopCollections:
    """The sparse multi-source sweep versus the dict/deque BFS oracle."""

    @given(positions, st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_bfs_oracle_all_sources(self, pts, hops):
        g = NetworkGraph(pts, radio_range=1.0)
        triple = g.k_hop_collections(hops)
        assert all(a.dtype == np.int64 for a in triple)
        _assert_rows_match_oracle(g, range(g.n_nodes), triple, hops)

    @given(
        positions,
        st.lists(st.integers(0, 19), min_size=0, max_size=8),
        st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_source_subset_matches_full_sweep(self, pts, sources, hops):
        # Sources come back in input order, repeats included, each row
        # exactly the full sweep's row for that source.
        g = NetworkGraph(pts, radio_range=1.0)
        subset = g.k_hop_collections(hops, sources=sources)
        _assert_rows_match_oracle(g, sources, subset, hops)
        full = _rows(g.k_hop_collections(hops))
        for s, (nodes, hop_counts) in zip(sources, _rows(subset)):
            assert np.array_equal(nodes, full[s][0])
            assert np.array_equal(hop_counts, full[s][1])

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_hops_one_is_closed_neighborhood(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        for source, (nodes, hop_counts) in enumerate(_rows(g.k_hop_collections(1))):
            expected = sorted([source] + [int(v) for v in g.neighbors(source)])
            assert nodes.tolist() == expected
            assert all(
                h == (0 if int(n) == source else 1)
                for n, h in zip(nodes, hop_counts)
            )

    def test_disconnected_components_stay_separate(self):
        # Two far-apart cliques, a path and an isolated node: collections
        # never cross a gap, and the isolated node's row is itself alone.
        pts = np.array(
            [[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0],
             [10, 0, 0], [10.5, 0, 0], [10, 0.5, 0],
             [20, 0, 0], [20.9, 0, 0], [21.8, 0, 0], [22.7, 0, 0],
             [40, 40, 40]],
            dtype=float,
        )
        g = NetworkGraph(pts, radio_range=1.0)
        sources = [10, 6, 3, 10, 0, 9]
        for hops in range(5):
            subset = g.k_hop_collections(hops, sources=sources)
            _assert_rows_match_oracle(g, sources, subset, hops)
            triple = g.k_hop_collections(hops)
            _assert_rows_match_oracle(g, range(g.n_nodes), triple, hops)
            nodes, hop_counts = _rows(triple)[10]
            assert nodes.tolist() == [10] and hop_counts.tolist() == [0]

    def test_empty_graph_and_empty_sources(self):
        empty = NetworkGraph(np.zeros((0, 3)), radio_range=1.0)
        for triple in (
            empty.k_hop_collections(2),
            NetworkGraph(np.zeros((3, 3))).k_hop_collections(2, sources=[]),
        ):
            assert [a.tolist() for a in triple] == [[0], [], []]

    def test_invalid_arguments_rejected(self):
        g = NetworkGraph(np.zeros((3, 3)), radio_range=1.0)
        with pytest.raises(ValueError):
            g.k_hop_collections(-1)
        with pytest.raises(ValueError):
            g.k_hop_collections(2, sources=[5])
