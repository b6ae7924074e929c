"""Frames as a point table plus a row index, against copied coordinates.

A :class:`~repro.network.localization.FrameBatch` keeps its coordinates
as ``points`` plus ``rows`` (frame row ``r`` sits at
``points[rows[r]]``): true frames index the network's own position table,
embedded frames their own.  UBF reads the table through the index and
never copies a frame's coordinates.  These tests check that the layout
changes no observable: UBF over a batch equals UBF over the same frames
re-packed with copied coordinates (``FrameBatch.from_frames(list(batch))``,
``rows = arange``) byte for byte -- verdicts, ``balls_tested``,
``points_checked``, witness centers and pairs -- for true and MDS frames,
both ``find_first`` values, the degenerate frame shapes and duplicated
sources, on the native path and the numpy fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import UBFConfig
from repro.core.parallel import run_ubf_parallel
from repro.core.ubf import localize_frames, run_ubf, search_frames, ubf_classify_frame
from repro.geometry.ballfit import empty_ball_exists, empty_ball_exists_batch
from repro.network.generator import Network
from repro.network.graph import NetworkGraph
from repro.network.localization import FrameBatch, true_frames
from repro.network.measurement import UniformAbsoluteError, measure_distances
from tests.native_paths import PATHS, on_path

RADIUS = UBFConfig().radius

#: Every ninth node of the session sphere: enough frames of every size
#: class to exercise the kernels, cheap enough for MDS on the fallback.
SUBSET = range(0, 1200, 9)


def _assert_same_search(a, b):
    for name, x, y in zip(a._fields, a, b):
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def _copied(batch: FrameBatch) -> FrameBatch:
    """The same frames with copied coordinates and ``rows = arange``."""
    return FrameBatch.from_frames(list(batch))


def _frames(network, mode, nodes):
    measured = None
    if mode == "mds":
        measured = measure_distances(
            network.graph, UniformAbsoluteError(0.2), np.random.default_rng(7)
        )
    return localize_frames(network.graph, measured, list(nodes), mode=mode)


@pytest.fixture(scope="module")
def degenerate_network():
    """A cluster plus an isolated node (a 1-member frame) and a pair of
    nodes that only see each other (``n_one_hop`` of 1)."""
    rng = np.random.default_rng(3)
    cluster = rng.uniform(0.0, 1.6, size=(40, 3))
    isolated = np.array([[20.0, 20.0, 20.0]])
    pair = np.array([[40.0, 0.0, 0.0], [40.5, 0.0, 0.0]])
    positions = np.vstack([cluster, isolated, pair])
    return Network(
        graph=NetworkGraph(positions, radio_range=1.0),
        truth_boundary=np.zeros(len(positions), dtype=bool),
        scenario="degenerate",
    )


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("mode", ["true", "mds"])
@pytest.mark.parametrize("find_first", [True, False])
def test_search_over_rows_equals_copied_coords(sphere_network, path, mode, find_first):
    with on_path(path):
        batch = _frames(sphere_network, mode, SUBSET)
        copied = _copied(batch)
        assert copied.coords.tobytes() == batch.coords.tobytes()
        _assert_same_search(
            search_frames(batch, RADIUS, find_first=find_first),
            search_frames(copied, RADIUS, find_first=find_first),
        )


@pytest.mark.parametrize("path", PATHS)
def test_true_frames_index_the_position_table(sphere_network, path):
    graph = sphere_network.graph
    with on_path(path):
        batch = true_frames(graph, list(SUBSET))
    assert batch.points is graph.positions
    assert batch.rows is batch.members
    assert batch.coords.tobytes() == graph.positions[batch.members].tobytes()


@pytest.mark.parametrize("path", PATHS)
def test_mds_frames_own_their_table(sphere_network, path):
    with on_path(path):
        batch = _frames(sphere_network, "mds", range(30))
    assert batch.points.shape == (batch.members.size, 3)
    assert batch.rows.dtype == np.int64
    assert np.array_equal(batch.rows, np.arange(batch.members.size))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("mode", ["true", "mds"])
@pytest.mark.parametrize("find_first", [True, False])
def test_degenerate_frames_and_duplicate_sources(
    degenerate_network, path, mode, find_first
):
    n = degenerate_network.graph.n_nodes
    sources = [n - 3, n - 2, 5, 5, 0, n - 1, n - 3, 12]
    with on_path(path):
        batch = _frames(degenerate_network, mode, sources)
        sizes = np.diff(batch.ptr)
        assert sizes[0] == 1 and batch.n_one_hop[0] == 0  # isolated
        assert batch.n_one_hop[1] == 1  # one of the pair
        got = search_frames(batch, RADIUS, find_first=find_first)
        _assert_same_search(
            got, search_frames(_copied(batch), RADIUS, find_first=find_first)
        )
    # Duplicated sources get identical, independent searches.
    for a, b in ((2, 3), (0, 6)):
        assert all(column[a].tobytes() == column[b].tobytes() for column in got)
    # Frames that cannot pair are conservative boundary with zero work.
    assert got.is_boundary[:2].all() and not got.balls_tested[:2].any()
    for i, frame in enumerate(batch):
        naive = ubf_classify_frame(frame, RADIUS, find_first=find_first, kernel="naive")
        assert bool(got.is_boundary[i]) == naive.is_boundary
        assert int(got.balls_tested[i]) == naive.balls_tested
        assert int(got.points_checked[i]) == naive.points_checked


@pytest.mark.parametrize("path", PATHS)
def test_empty_batch(degenerate_network, path):
    with on_path(path):
        batch = true_frames(degenerate_network.graph, [])
        got = search_frames(batch, RADIUS)
        _assert_same_search(got, search_frames(FrameBatch.from_frames([]), RADIUS))
    assert len(batch) == 0 and batch.coords.shape == (0, 3)
    assert got.witness_center.shape == (0, 3) and got.witness_pair.shape == (0, 2)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("find_first", [True, False])
def test_check_sets_without_the_neighbors(path, find_first):
    """Per-node sets pack probes and pair rows separately, so a check set
    that leaves the neighbors out (or is empty) is searched as given."""
    rng = np.random.default_rng(11)
    origins, nbrs, checks = [], [], []
    for m in (0, 1, 2, 3, 9, 25):
        for n_check in (0, 4, 30):
            origin = rng.uniform(-1.0, 1.0, 3)
            origins.append(origin)
            nbrs.append(origin + rng.uniform(-RADIUS, RADIUS, (m, 3)))
            checks.append(origin + rng.uniform(-1.5, 1.5, (n_check, 3)))
    with on_path(path):
        got = empty_ball_exists_batch(
            np.array(origins), nbrs, RADIUS, check_sets=checks, find_first=find_first
        )
    for result, origin, nb, check in zip(got, origins, nbrs, checks):
        naive = empty_ball_exists(
            origin, nb, RADIUS, check_points=check, find_first=find_first,
            kernel="naive",
        )
        assert result.is_boundary == naive.is_boundary
        assert result.balls_tested == naive.balls_tested
        assert result.points_checked == naive.points_checked
        assert result.witness_pair == naive.witness_pair
        if naive.empty_center is None:
            assert result.empty_center is None
        else:
            assert result.empty_center.tobytes() == naive.empty_center.tobytes()


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("mode", ["true", "mds"])
def test_frame_shards_concat_equals_unsharded(sphere_network, path, mode):
    """Frames localized shard by shard and merged by ``concat`` (as the
    MDS frame driver merges its shards) equal one unsharded batch."""
    with on_path(path):
        batch = _frames(sphere_network, mode, SUBSET)
        nodes = list(SUBSET)
        cuts = [0, 5, 6, 40, len(nodes)]
        shards = [_frames(sphere_network, mode, nodes[a:b]) for a, b in zip(cuts, cuts[1:])]
        joined = FrameBatch.concat(shards)
        for name in ("nodes", "ptr", "members", "coords", "n_one_hop",
                     "smacof_iterations"):
            assert getattr(joined, name).tobytes() == getattr(batch, name).tobytes()
        _assert_same_search(search_frames(joined, RADIUS), search_frames(batch, RADIUS))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("mode", ["true", "mds"])
def test_parallel_ubf_is_byte_identical(sphere_network, path, mode):
    """``run_ubf_parallel``, the entry point that packs a frame mapping,
    equals ``run_ubf`` on the batch for any ``workers``: UBF never shards."""
    with on_path(path):
        batch = _frames(sphere_network, mode, range(sphere_network.graph.n_nodes))
        reference = run_ubf(sphere_network, localization=mode, frames=batch)
        mapping = {f.node: f for f in batch}
        runs = [
            run_ubf_parallel(
                sphere_network, localization=mode, workers=workers, frames=frames
            )
            for workers in (1, 2)
            for frames in (batch, mapping)
        ]
    for run in runs:
        for name, got in vars(run).items():
            want = getattr(reference, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
