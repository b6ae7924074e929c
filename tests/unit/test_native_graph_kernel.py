"""The native unit-ball CSR build against its numpy twin, byte for byte.

``NativeKernels.unit_ball_csr`` builds every :class:`NetworkGraph`'s
adjacency when the kernels load; without them the constructor derives the
same CSR from ``UniformGridIndex.neighbor_pairs_array`` and one lexsort.
Its contract (see ``src/repro/geometry/ckernels.c``): the same grid
cells, the same squared-distance arithmetic and an inclusive radius, so
``indptr`` and ``indices`` are byte-equal to the numpy CSR.

Cases cover the perfbench deployments (the 20k and 3k spheres at seed 11
and the four ``campaign_sweep`` scenarios at 300 + 500 nodes) and the
degenerate inputs: no node, one node, coincident points, pairs exactly at
the radius, every point in one cell, negative coordinates and a radius
other than 1.  The differential cases skip when the kernels do not load
(no C compiler, or ``REPRO_NATIVE=0``); the CSR-storage cases run on both
paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.native import load_kernels
from repro.network.generator import DeploymentConfig, generate_network
from repro.network.graph import NetworkGraph
from repro.shapes.library import scenario_by_name
from tests.native_paths import PATHS, on_path

native_only = pytest.mark.skipif(
    load_kernels() is None, reason="no C compiler / native kernels disabled"
)

#: (scenario, n_surface, n_interior, target_degree, seed): the perfbench
#: spheres and the campaign_sweep networks.
DEPLOYMENTS = [
    ("sphere", 6000, 14000, 24.0, 11),
    ("sphere", 1200, 1800, 24.0, 11),
    *[(name, 300, 500, 18.0, 11)
      for name in ("sphere", "one_hole", "two_holes", "bent_pipe")],
]


def _csr_on(path, positions, radius=1.0):
    with on_path(path):
        return NetworkGraph(positions, radio_range=radius).csr()


def _assert_paths_agree(positions, radius=1.0):
    native = _csr_on("native", positions, radius)
    fallback = _csr_on("fallback", positions, radius)
    for got, want in zip(native, fallback):
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()
    return native


@native_only
@pytest.mark.parametrize("scenario,n_surface,n_interior,degree,seed", DEPLOYMENTS)
def test_deployments_match_numpy(scenario, n_surface, n_interior, degree, seed):
    config = DeploymentConfig(
        n_surface=n_surface, n_interior=n_interior, target_degree=degree, seed=seed
    )
    networks = {}
    for path in ("native", "fallback"):
        with on_path(path):
            networks[path] = generate_network(scenario_by_name(scenario), config)
    native, fallback = networks["native"].graph, networks["fallback"].graph
    assert native.positions.tobytes() == fallback.positions.tobytes()
    for got, want in zip(native.csr(), fallback.csr()):
        assert got.tobytes() == want.tobytes()
    _assert_paths_agree(native.positions)


@native_only
@pytest.mark.parametrize("n", [0, 1])
def test_tiny_graphs(n):
    indptr, indices = _assert_paths_agree(np.zeros((n, 3)))
    assert indptr.tolist() == [0] * (n + 1)
    assert indices.size == 0


@native_only
def test_coincident_points_are_neighbors():
    points = np.array([[0.5, 0.5, 0.5]] * 3 + [[0.5, 0.5, 2.0]])
    indptr, indices = _assert_paths_agree(points)
    assert indptr.tolist() == [0, 2, 4, 6, 6]
    assert indices.tolist() == [1, 2, 0, 2, 0, 1]


@native_only
def test_radius_is_inclusive():
    # Exactly 1 apart along each axis, across cell faces, and in a diagonal
    # whose squared distance rounds to exactly 1.
    points = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0],
         [0.6, 0.8, 0.0], [2.0, 2.0, 2.0], [3.0, 2.0, 2.0]]
    )
    indptr, indices = _assert_paths_agree(points)
    assert indices[indptr[0]:indptr[1]].tolist() == [1, 2, 3, 4]
    assert indices[indptr[5]:indptr[6]].tolist() == [6]


@native_only
def test_summation_order_decides_ties_at_the_radius(rng):
    """Offsets whose squared length is 1 or not depending on the order the
    three terms are summed in: both paths sum ``(dx^2 + dz^2) + dy^2``."""
    v = rng.normal(size=(200_000, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    sq = v * v
    ours = (sq[:, 0] + sq[:, 2]) + sq[:, 1] <= 1.0
    left_to_right = (sq[:, 0] + sq[:, 1]) + sq[:, 2] <= 1.0
    split = np.flatnonzero(ours != left_to_right)[:8]
    assert split.size == 8
    for k in split:
        # Node 0 minus node 1 is exactly v[k].
        indptr, _ = _assert_paths_agree(np.stack([np.zeros(3), -v[k]]))
        assert indptr.tolist() == ([0, 1, 2] if ours[k] else [0, 0, 0])


@native_only
def test_all_points_in_one_cell(rng):
    indptr, indices = _assert_paths_agree(rng.uniform(0.0, 0.99, size=(40, 3)))
    assert indices.size > 0


@native_only
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_negative_coordinates_and_cell_faces(seed):
    rng = np.random.default_rng(seed)
    grid = rng.integers(-3, 3, size=(300, 3)).astype(float)
    jitter = rng.uniform(-0.6, 0.6, size=(300, 3)) * (rng.random((300, 1)) < 0.6)
    _assert_paths_agree(grid + jitter)


@native_only
@pytest.mark.parametrize("radius", [1.5, 0.3])
def test_other_radii(rng, radius):
    _assert_paths_agree(rng.uniform(-4.0, 4.0, size=(400, 3)), radius)


@pytest.mark.parametrize("path", PATHS)
def test_neighbors_is_a_read_only_csr_row(path, rng):
    positions = rng.uniform(0.0, 3.0, size=(60, 3))
    with on_path(path):
        graph = NetworkGraph(positions, radio_range=1.0)
    indptr, indices = graph.csr()
    node = int(np.argmax(np.diff(indptr)))
    row = graph.neighbors(node)
    assert row.tolist() == indices[indptr[node]:indptr[node + 1]].tolist()
    assert graph.degree(node) == row.size > 0
    with pytest.raises(ValueError):
        row[0] = 0


def test_from_csr_round_trips(rng):
    graph = NetworkGraph(rng.uniform(0.0, 3.0, size=(80, 3)), radio_range=1.0)
    indptr, indices = graph.csr()
    twin = NetworkGraph.from_csr(graph.positions, graph.radio_range, indptr, indices)
    for got, want in zip(twin.csr(), graph.csr()):
        assert got.tobytes() == want.tobytes()
    assert twin.positions.tobytes() == graph.positions.tobytes()
    assert list(twin.edges()) == list(graph.edges())
    assert [twin.neighbors(u).tolist() for u in range(twin.n_nodes)] == [
        graph.neighbors(u).tolist() for u in range(graph.n_nodes)
    ]
    assert twin.connected_components() == graph.connected_components()


def test_explicit_adjacency_builds_sorted_rows():
    graph = NetworkGraph(np.zeros((4, 3)), adjacency=[[3, 1], [0], [], [0]])
    indptr, indices = graph.csr()
    assert indptr.tolist() == [0, 2, 3, 3, 4]
    assert indices.tolist() == [1, 3, 0, 0]
    assert graph.neighbors(2).size == 0
