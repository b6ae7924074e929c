"""The native hop-bounded BFS against its sparse-sweep twin and the BFS oracles.

``NativeKernels.hop_bfs`` backs frame collection, the IFF flood counts
and connected components.  Its contracts (see
``src/repro/geometry/ckernels.c``):

- frame order -- the source, its hop-1 nodes ascending, then hop >= 2
  ascending -- equal to :func:`_frame_members` and byte-equal to the
  sparse sweep + lexsort the compiler-less path runs;
- per-source searches, so duplicate and unsorted sources each get their
  own row, and an empty source list gives an empty batch;
- a membership mask that a search never leaves, with a source outside
  it reaching nothing (``bfs_hops(within=...)`` semantics);
- a shared visited set that labels connected components.

Graphs include isolated nodes.  Cases parametrized over
:data:`tests.native_paths.PATHS` run the production entry points on both
the native and the fallback path; the direct kernel cases skip when the
kernels do not load (no C compiler, or ``REPRO_NATIVE=0``).  The IFF
counts on both paths are checked in ``tests/property/test_prop_iff.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry.native import load_kernels
from repro.network.graph import NetworkGraph
from repro.network.localization import (
    _frame_members,
    _frame_order_from_sweep,
    true_frames,
)
from tests.native_paths import PATHS, on_path

N_CLUSTERED = 24
#: Three isolated nodes far from the clustered ones and from each other.
ISOLATED = np.array([[40.0, 0.0, 0.0], [0.0, 40.0, 0.0], [0.0, 0.0, 40.0]])
N_NODES = N_CLUSTERED + len(ISOLATED)

coord = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False, width=32)
clustered = arrays(np.float64, (N_CLUSTERED, 3), elements=coord)
node_ids = st.integers(0, N_NODES - 1)
sources = st.lists(node_ids, min_size=0, max_size=12)
hop_bounds = st.integers(1, 3)

native_only = pytest.mark.skipif(
    load_kernels() is None, reason="no C compiler / native kernels disabled"
)


def _graph(pts: np.ndarray) -> NetworkGraph:
    return NetworkGraph(np.vstack([pts, ISOLATED]), radio_range=1.0)


def _segments(ptr: np.ndarray, flat: np.ndarray):
    return [flat[lo:hi].tolist() for lo, hi in zip(ptr[:-1], ptr[1:])]


@pytest.mark.parametrize("path", PATHS)
@given(clustered, sources, hop_bounds)
@settings(max_examples=40, deadline=None)
def test_frames_match_pernode_oracle(path, pts, srcs, hops):
    g = _graph(pts)
    with on_path(path):
        batch = true_frames(g, srcs, hops=hops)
    assert batch.nodes.tolist() == srcs
    assert batch.ptr.dtype == batch.members.dtype == batch.n_one_hop.dtype == np.int64
    for i, (node, members) in enumerate(zip(srcs, _segments(batch.ptr, batch.members))):
        expected, n_one_hop = _frame_members(g, node, hops)
        assert members == expected
        assert batch.n_one_hop[i] == n_one_hop


@native_only
@given(clustered, sources, st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_kernel_frame_order_is_byte_equal_to_sweep(pts, srcs, hops):
    g = _graph(pts)
    src = np.asarray(srcs, dtype=np.int64)
    ptr, n_one_hop, members = load_kernels().hop_bfs(*g.csr(), src, hops)
    twin_ptr, twin_members, twin_n_one_hop = _frame_order_from_sweep(g, src, hops)
    for ours, twin in ((ptr, twin_ptr), (members, twin_members), (n_one_hop, twin_n_one_hop)):
        assert ours.dtype == twin.dtype and ours.tobytes() == twin.tobytes()


@native_only
@given(clustered, sources, st.sets(node_ids), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_masked_search_matches_restricted_bfs(pts, srcs, within, hops):
    # Sources outside the mask are drawn too: they must reach nothing.
    g = _graph(pts)
    mask = np.zeros(g.n_nodes, dtype=bool)
    mask[sorted(within)] = True
    ptr, n_one_hop, members = load_kernels().hop_bfs(
        *g.csr(), np.asarray(srcs, dtype=np.int64), hops, mask=mask
    )
    count_ptr, count_n_one_hop, none = load_kernels().hop_bfs(
        *g.csr(), np.asarray(srcs, dtype=np.int64), hops, mask=mask, fill=False
    )
    assert none is None
    assert np.array_equal(ptr, count_ptr) and np.array_equal(n_one_hop, count_n_one_hop)
    for i, (s, row) in enumerate(zip(srcs, _segments(ptr, members))):
        oracle = g.bfs_hops([s], within=within, max_hops=hops)
        assert sorted(row) == sorted(oracle)
        assert n_one_hop[i] == sum(1 for d in oracle.values() if d == 1)
        if s not in within:
            assert row == []


@given(clustered, st.one_of(st.none(), st.sets(node_ids)))
@settings(max_examples=40, deadline=None)
def test_components_native_equal_deque_bfs(pts, within):
    g = _graph(pts)
    with on_path("fallback"):
        oracle = g.connected_components(within=within)
        oracle_connected = g.is_connected()
    assert g.connected_components(within=within) == oracle
    assert g.is_connected() == oracle_connected
    expected_nodes = range(g.n_nodes) if within is None else sorted(within)
    assert sorted(n for comp in oracle for n in comp) == list(expected_nodes)


@native_only
def test_long_collections_come_out_sorted():
    # 400 nodes in a 4-unit cube (mean degree ~20): 2-hop collections run to
    # over a hundred members, far past the kernel sort's insertion-sort
    # cutoff.
    rng = np.random.default_rng(7)
    g = NetworkGraph(rng.uniform(0.0, 4.0, size=(400, 3)), radio_range=1.0)
    src = rng.permutation(g.n_nodes)
    for hops in (2, 3, 4):
        ptr, n_one_hop, members = load_kernels().hop_bfs(*g.csr(), src, hops)
        twin = _frame_order_from_sweep(g, src, hops)
        assert np.diff(ptr).max() > 100
        assert np.array_equal(ptr, twin[0])
        assert np.array_equal(members, twin[1])
        assert np.array_equal(n_one_hop, twin[2])


@native_only
def test_empty_inputs():
    kernels = load_kernels()
    g = NetworkGraph(np.zeros((3, 3)), radio_range=1.0)
    ptr, n_one_hop, members = kernels.hop_bfs(*g.csr(), np.empty(0, dtype=np.int64), 2)
    assert [ptr.tolist(), n_one_hop.tolist(), members.tolist()] == [[0], [], []]
    empty = NetworkGraph(np.zeros((0, 3)), radio_range=1.0)
    ptr, _, members = kernels.hop_bfs(*empty.csr(), np.empty(0, dtype=np.int64), -1)
    assert ptr.tolist() == [0] and members.size == 0


@native_only
def test_invalid_arguments_rejected():
    kernels = load_kernels()
    g = NetworkGraph(np.zeros((3, 3)), radio_range=1.0)
    indptr, indices = g.csr()
    with pytest.raises(ValueError):
        kernels.hop_bfs(indptr, indices, np.array([3]), 2)
    with pytest.raises(ValueError):
        kernels.hop_bfs(indptr, indices, np.array([-1]), 2)
    with pytest.raises(ValueError):
        kernels.hop_bfs(indptr, indices, np.array([0]), 2, mask=np.ones(2, dtype=bool))
    with pytest.raises(ValueError):
        kernels.hop_bfs(indptr[:-1], indices, np.array([0]), 2)


@pytest.mark.parametrize("path", PATHS)
def test_negative_hops_rejected_for_frames(path):
    g = NetworkGraph(np.zeros((3, 3)), radio_range=1.0)
    with on_path(path), pytest.raises(ValueError):
        true_frames(g, [0], hops=-1)
