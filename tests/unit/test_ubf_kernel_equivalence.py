"""Differential tests: the batched UBF kernel against the naive oracle.

The two kernels of :mod:`repro.geometry.ballfit` promise *identical*
observables -- same boundary verdict, same witness ball, same
``balls_tested`` / ``points_checked`` counters -- on every input.  All
three paths (the fused native C kernel, the numpy fallback and the naive
scalar oracle) share one Eq.-1 and probe arithmetic, so witness centers
are compared byte for byte too.  These tests enforce the contract on:

* deployed networks across the paper's shape library and both ``eps``
  regimes, in both ``find_first`` modes;
* randomized synthetic neighborhoods sweeping neighbor counts, radii and
  wave widths;
* degenerate geometry: exactly collinear and near-collinear neighbor
  pairs, tangent (circumradius == radius) balls, and under-connected
  nodes, through both scans;
* the candidate enumeration order itself, which the counter equality
  silently depends on;
* slab, Eq.-1 block and wave sizes (monkeypatched module constants), and
  the native C kernel (when a compiler is available) against the numpy
  waves, including the compiler-less fallback path;
* a neighborhood whose verdict hinges on the summation order of squared
  norms, where the paths once disagreed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DeploymentConfig, generate_network, scenario_by_name
from repro.core.ubf import ubf_classify_frame
from repro.geometry import ballfit
from repro.geometry.ballfit import (
    BallFitResult,
    balls_through_point_pairs,
    balls_through_three_points,
    empty_ball_exists,
    empty_ball_exists_batch,
)
from repro.geometry.native import NATIVE_ENV_VAR, load_kernels, reset_kernel_cache
from repro.network.localization import true_local_frame

SCENARIOS = ("sphere", "bent_pipe", "two_holes", "underwater")

#: Small but non-trivial deployments -- enough geometry for two-solution,
#: tangent-adjacent, and no-candidate nodes to all occur.
DEPLOYS = {
    "sphere": DeploymentConfig(n_surface=150, n_interior=250, target_degree=18, seed=11),
    "bent_pipe": DeploymentConfig(n_surface=150, n_interior=200, target_degree=18, seed=12),
    "two_holes": DeploymentConfig(n_surface=150, n_interior=250, target_degree=18, seed=13),
    "underwater": DeploymentConfig(n_surface=150, n_interior=250, target_degree=18, seed=14),
}

EPS_VALUES = (1e-3, 0.2)

#: The batched kernel's two paths: the numpy waves and the fused C kernel.
SCANS = ("batched", "native")


def force_numpy_waves(monkeypatch) -> None:
    """Make the batched kernel take its numpy fallback even when C loads."""
    monkeypatch.setattr(ballfit, "_native_ubf_kernels", lambda: None)


@pytest.fixture
def scan(request, monkeypatch):
    """Route the batched kernel through one scan (indirect parametrization).

    ``"batched"`` forces the numpy waves; ``"native"`` needs the C kernel
    and skips when no compiler is available or ``REPRO_NATIVE=0``.
    """
    if request.param == "native":
        if load_kernels() is None:
            pytest.skip("no C compiler / native kernels disabled")
    else:
        force_numpy_waves(monkeypatch)
    return request.param


def assert_results_equal(vec: BallFitResult, naive: BallFitResult) -> None:
    """Full observable equality between two kernels' results, witness
    centers bit for bit (every path shares the Eq.-1 arithmetic operation
    for operation)."""
    assert vec.is_boundary == naive.is_boundary
    assert vec.balls_tested == naive.balls_tested
    assert vec.points_checked == naive.points_checked
    assert vec.witness_pair == naive.witness_pair
    if naive.empty_center is None:
        assert vec.empty_center is None
    else:
        assert np.array_equal(vec.empty_center, naive.empty_center)


@pytest.fixture(scope="module", params=SCENARIOS)
def scenario_network(request):
    name = request.param
    return generate_network(scenario_by_name(name), DEPLOYS[name], scenario=name)


class TestNetworkDifferential:
    """Batched-vs-naive equality over real deployed local frames."""

    @pytest.mark.parametrize("eps", EPS_VALUES)
    @pytest.mark.parametrize("find_first", [True, False])
    def test_kernels_agree_on_network(self, scenario_network, eps, find_first):
        graph = scenario_network.graph
        radius = 1.0 + eps
        # Every 3rd node keeps the sweep exhaustive in spirit but fast.
        nodes = range(0, graph.n_nodes, 3)
        for node in nodes:
            frame = true_local_frame(graph, node)
            fast = ubf_classify_frame(frame, radius, find_first=find_first)
            naive = ubf_classify_frame(
                frame, radius, find_first=find_first, kernel="naive"
            )
            assert_results_equal(fast, naive)

    def test_chunk_size_is_observably_invisible(
        self, scenario_network, monkeypatch
    ):
        """Any wave width must yield the same observables (incl. early exit)."""
        graph = scenario_network.graph
        radius = 1.0 + 0.2
        frame = true_local_frame(graph, 0)
        reference = ubf_classify_frame(frame, radius, kernel="naive")
        force_numpy_waves(monkeypatch)
        for chunk_size in (1, 2, 7, 64, 4096):
            monkeypatch.setattr(ballfit, "DEFAULT_CHUNK_SIZE", chunk_size)
            assert_results_equal(ubf_classify_frame(frame, radius), reference)


class TestRandomizedDifferential:
    """Property-style sweep over synthetic neighborhoods."""

    def test_random_configurations(self, monkeypatch):
        rng = np.random.default_rng(1234)
        for trial in range(150):
            m = int(rng.integers(2, 22))
            origin = rng.normal(size=3)
            neighbors = origin + rng.normal(scale=0.6, size=(m, 3))
            extra = int(rng.integers(0, 8))
            check = np.vstack(
                [neighbors, origin + rng.normal(scale=1.2, size=(extra, 3))]
            )
            radius = float(rng.uniform(0.8, 1.6))
            monkeypatch.setattr(
                ballfit, "DEFAULT_CHUNK_SIZE", int(rng.integers(1, 40))
            )
            find_first = bool(rng.integers(0, 2))
            fast = empty_ball_exists(
                origin,
                neighbors,
                radius,
                check_points=check,
                find_first=find_first,
            )
            naive = empty_ball_exists(
                origin,
                neighbors,
                radius,
                check_points=check,
                find_first=find_first,
                kernel="naive",
            )
            assert_results_equal(fast, naive)


class TestDegenerateGeometry:
    """Edge cases where Eq. 1 has 0 or 1 solutions, or no pairs at all."""

    @pytest.mark.parametrize("kernel", ["naive", "batched"])
    def test_fewer_than_two_neighbors_is_conservative_boundary(self, kernel):
        out = empty_ball_exists(
            [0.0, 0.0, 0.0], [[0.5, 0.0, 0.0]], 1.0, kernel=kernel
        )
        assert out.is_boundary
        assert out.balls_tested == 0
        assert out.points_checked == 0

    @pytest.mark.parametrize("scan", SCANS, indirect=True)
    def test_exactly_collinear_neighbors_yield_no_candidates(self, scan):
        origin = np.zeros(3)
        neighbors = np.array([[0.3, 0.0, 0.0], [0.6, 0.0, 0.0], [0.9, 0.0, 0.0]])
        fast = empty_ball_exists(origin, neighbors, 1.0)
        naive = empty_ball_exists(origin, neighbors, 1.0, kernel="naive")
        assert_results_equal(fast, naive)
        # All triples are collinear: zero candidate balls, conservative True.
        assert fast.is_boundary and fast.balls_tested == 0

    @pytest.mark.parametrize("scan", SCANS, indirect=True)
    @pytest.mark.parametrize("jitter", [1e-12, 1e-9, 1e-6, 1e-4])
    def test_near_collinear_pairs(self, jitter, scan):
        """Both scans must cross the degeneracy threshold like the oracle."""
        origin = np.zeros(3)
        neighbors = np.array(
            [
                [0.4, 0.0, 0.0],
                [0.8, jitter, 0.0],
                [0.2, 0.3, 0.1],
            ]
        )
        for find_first in (True, False):
            fast = empty_ball_exists(
                origin, neighbors, 1.05, find_first=find_first
            )
            naive = empty_ball_exists(
                origin, neighbors, 1.05, find_first=find_first, kernel="naive"
            )
            assert_results_equal(fast, naive)

    @pytest.mark.parametrize("scan", SCANS, indirect=True)
    def test_tangent_pair_counts_single_candidate(self, scan):
        """Circumradius == radius: one center, counted once by every kernel."""
        radius = 1.0
        # Equilateral-ish triangle inscribed so its circumradius equals r.
        theta = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
        ring = np.column_stack(
            [radius * np.cos(theta), radius * np.sin(theta), np.zeros(3)]
        )
        origin, neighbors = ring[0], ring[1:]
        centers = balls_through_three_points(origin, neighbors[0], neighbors[1], radius)
        assert len(centers) == 1  # tangent: the circumcenter only
        fast = empty_ball_exists(origin, neighbors, radius, find_first=False)
        naive = empty_ball_exists(
            origin, neighbors, radius, find_first=False, kernel="naive"
        )
        assert_results_equal(fast, naive)
        assert fast.balls_tested == 1

    @pytest.mark.parametrize("scan", SCANS, indirect=True)
    def test_summation_order_shared_by_every_path(self, scan):
        """A verdict that hinges on how squared norms are summed.

        The first candidate ball's last probe lands exactly on the
        strict-inside threshold when its distance sums left to right, so
        the ball is empty after 4 probes.  Summed as ``(x^2 + z^2) + y^2``
        it is one ulp inside; that sum in the numpy waves, and ``np.dot``
        norms in the naive oracle's center, once made those two paths test
        a second ball (2 balls, 8 probes).
        """
        origin = np.zeros(3)
        neighbors = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.05]])
        check = np.vstack(
            [neighbors, [[1.129621478668743, -0.2984323513198192, 0.6102197359843873]]]
        )
        fast = empty_ball_exists(origin, neighbors, 1.0, check_points=check)
        naive = empty_ball_exists(
            origin, neighbors, 1.0, check_points=check, kernel="naive"
        )
        assert_results_equal(fast, naive)
        assert (fast.balls_tested, fast.points_checked) == (1, 4)

    @pytest.mark.parametrize("scan", SCANS, indirect=True)
    def test_circumradius_exceeding_radius_yields_no_ball(self, scan):
        origin = np.array([0.0, 0.0, 0.0])
        neighbors = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        fast = empty_ball_exists(origin, neighbors, 1.0)
        naive = empty_ball_exists(origin, neighbors, 1.0, kernel="naive")
        assert_results_equal(fast, naive)
        assert fast.balls_tested == 0 and fast.is_boundary


def _random_batch(rng, n_nodes):
    """A synthetic batch: origins, neighbor sets, and check sets."""
    origins, nbrs, checks = [], [], []
    for _ in range(n_nodes):
        deg = int(rng.integers(0, 14))
        origin = rng.uniform(-2.0, 2.0, 3)
        neighbors = origin + rng.uniform(-1.0, 1.0, (deg, 3))
        extra = int(rng.integers(0, 10))
        check = (
            np.vstack([neighbors, origin + rng.uniform(-1.5, 1.5, (extra, 3))])
            if extra
            else neighbors.copy()
        )
        origins.append(origin)
        nbrs.append(neighbors)
        checks.append(check)
    return np.array(origins).reshape(n_nodes, 3), nbrs, checks


def _batch_of(frames, radius, find_first=True):
    """One batched call over ``frames`` (their slabs share one kernel call)."""
    return empty_ball_exists_batch(
        np.stack([f.origin_coordinates for f in frames]),
        [f.neighbor_coordinates for f in frames],
        radius,
        check_sets=[f.collection_coordinates for f in frames],
        find_first=find_first,
    )


class TestBatchedKernel:
    """Slab, block and wave sizes never change the batched kernel's output."""

    @pytest.mark.parametrize("find_first", [True, False])
    def test_batched_agrees_on_network(self, scenario_network, find_first):
        """A node's result is the same in a network-wide slab and alone."""
        graph = scenario_network.graph
        radius = 1.0 + 0.2
        frames = [
            true_local_frame(graph, node) for node in range(0, graph.n_nodes, 3)
        ]
        batch = _batch_of(frames, radius, find_first)
        for frame, got in zip(frames, batch):
            alone = ubf_classify_frame(frame, radius, find_first=find_first)
            assert_results_equal(got, alone)

    @pytest.mark.parametrize("find_first", [True, False])
    def test_randomized_batches(self, find_first, monkeypatch):
        rng = np.random.default_rng(4321)
        for trial in range(30):
            origins, nbrs, checks = _random_batch(rng, int(rng.integers(1, 12)))
            radius = float(rng.uniform(0.8, 1.6))
            monkeypatch.setattr(
                ballfit, "DEFAULT_CHUNK_SIZE", int(rng.integers(1, 40))
            )
            batch = empty_ball_exists_batch(
                origins,
                nbrs,
                radius,
                check_sets=checks,
                find_first=find_first,
            )
            for i, got in enumerate(batch):
                naive = empty_ball_exists(
                    origins[i],
                    nbrs[i],
                    radius,
                    check_points=checks[i],
                    find_first=find_first,
                    kernel="naive",
                )
                assert_results_equal(got, naive)

    def test_pair_block_boundaries(self, monkeypatch):
        """Forcing tiny Eq.-1 blocks must not change any observable.

        Regression guard for the multi-block path: a 17-pair block puts
        many block boundaries inside every node's pair range, pinning the
        block bookkeeping at toy scale.
        """
        force_numpy_waves(monkeypatch)
        rng = np.random.default_rng(5)
        origins, nbrs, checks = _random_batch(rng, 8)
        reference = empty_ball_exists_batch(
            origins, nbrs, 1.1, check_sets=checks, find_first=False
        )
        monkeypatch.setattr(
            ballfit, "BLOCK_BYTES_PER_PAIR", ballfit.UBF_WORKING_SET_BYTES // 17
        )
        small = empty_ball_exists_batch(
            origins, nbrs, 1.1, check_sets=checks, find_first=False
        )
        for got, ref in zip(small, reference):
            assert_results_equal(got, ref)

    @pytest.mark.parametrize("scan", SCANS, indirect=True)
    def test_one_node_slabs(self, scenario_network, scan, monkeypatch):
        """A one-byte budget (one node per slab, one pair per block, one
        probe row per wave) must not change any observable."""
        graph = scenario_network.graph
        frames = [true_local_frame(graph, node) for node in range(0, 60, 3)]
        for find_first in (True, False):
            reference = _batch_of(frames, 1.2, find_first)
            with monkeypatch.context() as patch:
                patch.setattr(ballfit, "UBF_WORKING_SET_BYTES", 1)
                tiny = _batch_of(frames, 1.2, find_first)
            for got, ref in zip(tiny, reference):
                assert_results_equal(got, ref)

    def test_batch_chunk_size_is_observably_invisible(
        self, scenario_network, monkeypatch
    ):
        graph = scenario_network.graph
        radius = 1.0 + 0.2
        frames = [true_local_frame(graph, node) for node in range(0, 40, 4)]
        force_numpy_waves(monkeypatch)
        reference = _batch_of(frames, radius)
        for chunk_size in (1, 2, 7, 4096):
            monkeypatch.setattr(ballfit, "DEFAULT_CHUNK_SIZE", chunk_size)
            for a, b in zip(_batch_of(frames, radius), reference):
                assert_results_equal(a, b)


class TestNativeKernel:
    """The fused C kernel against the numpy waves, plus its fallback."""

    @pytest.mark.skipif(
        load_kernels() is None, reason="no C compiler / native kernels disabled"
    )
    @pytest.mark.parametrize("find_first", [True, False])
    def test_native_bit_identical_to_batched(
        self, scenario_network, find_first, monkeypatch
    ):
        graph = scenario_network.graph
        radius = 1.0 + 0.2
        frames = [
            true_local_frame(graph, node) for node in range(0, graph.n_nodes, 5)
        ]
        native = _batch_of(frames, radius, find_first)
        force_numpy_waves(monkeypatch)
        waves = _batch_of(frames, radius, find_first)
        for a, b in zip(native, waves):
            assert_results_equal(a, b)

    def test_native_falls_back_without_compiler(self, monkeypatch):
        """The batched kernel must stay correct when the C kernel is unavailable."""
        monkeypatch.setenv(NATIVE_ENV_VAR, "0")
        reset_kernel_cache()
        try:
            assert load_kernels() is None
            rng = np.random.default_rng(6)
            origins, nbrs, checks = _random_batch(rng, 6)
            fallback = empty_ball_exists_batch(
                origins, nbrs, 1.1, check_sets=checks
            )
            for i, got in enumerate(fallback):
                naive = empty_ball_exists(
                    origins[i], nbrs[i], 1.1, check_points=checks[i], kernel="naive"
                )
                assert_results_equal(got, naive)
        finally:
            reset_kernel_cache()


class TestEnumerationOrder:
    """The batched Eq.-1 solver must enumerate exactly like a per-pair loop."""

    def test_candidate_order_matches_scalar_loop(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            m = int(rng.integers(2, 15))
            origin = rng.normal(size=3)
            pts = origin + rng.normal(scale=0.5, size=(m, 3))
            radius = float(rng.uniform(0.8, 1.4))

            centers, pairs = balls_through_point_pairs(origin, pts, radius)

            expected_centers, expected_pairs = [], []
            for j in range(m - 1):
                for k in range(j + 1, m):
                    for c in balls_through_three_points(origin, pts[j], pts[k], radius):
                        expected_centers.append(c)
                        expected_pairs.append((j, k))

            assert centers.shape[0] == len(expected_centers)
            assert [tuple(p) for p in pairs] == expected_pairs
            if expected_centers:
                assert np.array_equal(centers, np.asarray(expected_centers))
