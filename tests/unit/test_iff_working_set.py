"""IFF's flood sweep works in proportion to the floods, not k squared.

Each candidate's flood reaches only its ``ttl``-hop neighborhood among the
candidates, so doubling the candidate count at fixed density should about
double the sweep's peak allocation.  A dense ``(sources x candidates)``
hop table would grow it about fourfold instead.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.config import IFFConfig
from repro.core.iff import iff_fragment_sizes
from repro.network.graph import NetworkGraph

#: Strip width and thickness; the strip's length grows with the node count
#: so the density (and every flood's reach) stays fixed.
WIDTH, THICKNESS = 4.0, 0.5

#: Nodes per unit of strip length (mean degree about 10).
PER_LENGTH = 13.0


def _strip(n_nodes: int) -> NetworkGraph:
    rng = np.random.default_rng(7)
    length = n_nodes / PER_LENGTH
    pts = rng.uniform(0.0, 1.0, size=(n_nodes, 3)) * [length, WIDTH, THICKNESS]
    return NetworkGraph(pts, radio_range=1.0)


def _peak_traced_bytes(graph: NetworkGraph) -> int:
    candidates = set(range(graph.n_nodes))
    tracemalloc.start()
    try:
        iff_fragment_sizes(graph, candidates, IFFConfig().ttl)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_grows_linearly_with_candidates():
    # A first sweep pays one-time imports; keep them out of the peaks.
    _peak_traced_bytes(_strip(50))
    small, large = _strip(1000), _strip(2000)
    assert 8.0 < small.degrees().mean() < 12.0
    small_peak = _peak_traced_bytes(small)
    large_peak = _peak_traced_bytes(large)
    assert large_peak < 2.5 * small_peak
