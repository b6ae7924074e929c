"""Property tests: the IFF flood counts versus their dict-BFS oracle.

The counts come from the native hop-bounded BFS when the kernels load and
from the sparse sweep otherwise; the ``fallback`` cases pin the sweep
even where the kernels load.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.iff import iff_fragment_sizes, iff_fragment_sizes_bfs
from repro.network.graph import NetworkGraph
from tests.native_paths import on_path

coord = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False, width=32)
positions = arrays(np.float64, (20, 3), elements=coord)


@given(positions, st.sets(st.integers(0, 19)), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_matches_bfs_oracle_on_random_candidates(pts, candidates, ttl):
    g = NetworkGraph(pts, radio_range=1.0)
    assert iff_fragment_sizes(g, candidates, ttl) == iff_fragment_sizes_bfs(
        g, candidates, ttl
    )


@pytest.mark.parametrize("ttl", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "candidates",
    [set(), {4}, {0, 1, 2, 6, 7, 8}, {0, 2, 5, 7, 10}, set(range(11))],
    ids=["empty", "singleton", "two-runs", "no-adjacent-pair", "all"],
)
def test_matches_bfs_oracle_on_degenerate_candidates(candidates, ttl):
    # A chain (0-4), a second chain (5-9) far away, and an isolated node:
    # candidate sets that are empty, one node, split across components,
    # or pairwise non-adjacent.
    pts = np.array(
        [[0.8 * i, 0.0, 0.0] for i in range(5)]
        + [[20.0 + 0.8 * i, 0.0, 0.0] for i in range(5)]
        + [[50.0, 50.0, 50.0]]
    )
    g = NetworkGraph(pts, radio_range=1.0)
    sizes = iff_fragment_sizes(g, candidates, ttl)
    assert sizes == iff_fragment_sizes_bfs(g, candidates, ttl)
    assert set(sizes) == candidates


@given(positions, st.sets(st.integers(0, 19)), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_sweep_fallback_matches_bfs_oracle(pts, candidates, ttl):
    g = NetworkGraph(pts, radio_range=1.0)
    with on_path("fallback"):
        sizes = iff_fragment_sizes(g, candidates, ttl)
    assert sizes == iff_fragment_sizes_bfs(g, candidates, ttl)
