"""Differential tests: the sparse localization engine against the oracle.

The engine contract (see :mod:`repro.network.localization`): for every
node, ``sparse`` and the ``pernode`` oracle produce the same member
list, the same one-hop count, and *exactly* the same SMACOF iteration
count, with coordinates within
:data:`repro.geometry.mds.SMACOF_BATCH_COORD_TOL`.  The contract is
checked across every library scenario and both noise regimes (perfect
ranging and the paper's 30% measured-mode error), at the exact member
counts that straddle the scalar-fallback boundary and at 192 and 200
members, and on degenerate (single-member, fully collinear) frames.  The
unreachable-pair sentinel is pinned on the numpy completion and on the
native ``fw_complete`` kernel when it loads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.configschema import extract_config_schema
from repro.core.config import DetectorConfig, LocalizationConfig
from repro.geometry.mds import (
    SMACOF_BATCH_COORD_TOL,
    UNREACHABLE_LOCAL_DISTANCE,
    complete_distance_matrix,
)
from repro.geometry.native import load_kernels
from repro.network.generator import DeploymentConfig, generate_network
from repro.network.graph import NetworkGraph
from repro.network.localization import (
    SCALAR_FALLBACK_MEMBERS,
    FrameBatch,
    LocalFrame,
    build_frames,
    establish_local_frame,
    frame_distance_residual,
)
from repro.network.measurement import (
    NoError,
    UniformAbsoluteError,
    measure_distances,
)
from repro.shapes.library import SCENARIOS, scenario_by_name

NOISE_MODELS = {
    "perfect": NoError(),
    "measured_30pct": UniformAbsoluteError(0.3),
}

#: Engines checked against the ``pernode`` oracle.
ENGINES_UNDER_TEST = ("sparse",)


def _small_network(scenario: str):
    return generate_network(
        scenario_by_name(scenario),
        DeploymentConfig(
            n_surface=60, n_interior=90, target_degree=12.0, seed=17
        ),
        scenario=scenario,
    )


def _assert_frames_observably_identical(frames, pernode):
    assert len(frames) == len(pernode)
    for a, b in zip(frames, pernode):
        assert a.node == b.node
        assert a.members == b.members
        assert a.n_one_hop == b.n_one_hop
        assert a.smacof_iterations == b.smacof_iterations
        deviation = float(np.abs(a.coordinates - b.coordinates).max())
        assert deviation <= SMACOF_BATCH_COORD_TOL, (
            f"node {a.node}: coordinate deviation {deviation:.3e} exceeds "
            f"{SMACOF_BATCH_COORD_TOL:.0e}"
        )


class TestEngineDifferential:
    @pytest.mark.parametrize("engine", ENGINES_UNDER_TEST)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("noise", sorted(NOISE_MODELS))
    def test_engine_matches_pernode_oracle(self, scenario, noise, engine):
        network = _small_network(scenario)
        measured = measure_distances(
            network.graph, NOISE_MODELS[noise], np.random.default_rng(23)
        )
        frames = build_frames(network.graph, measured, engine=engine)
        pernode = build_frames(network.graph, measured, engine="pernode")
        _assert_frames_observably_identical(frames, pernode)

    @pytest.mark.parametrize("engine", ENGINES_UNDER_TEST)
    def test_engines_agree_on_node_subsets(self, engine):
        network = _small_network("sphere")
        measured = measure_distances(
            network.graph, UniformAbsoluteError(0.3), np.random.default_rng(3)
        )
        nodes = [5, 0, 42, 17]
        frames = build_frames(network.graph, measured, engine=engine, nodes=nodes)
        pernode = build_frames(
            network.graph, measured, engine="pernode", nodes=nodes
        )
        assert [f.node for f in frames] == nodes
        _assert_frames_observably_identical(frames, pernode)

    def test_batch_is_partition_invariant(self):
        """A frame's bits must not depend on which batch it lands in."""
        network = _small_network("sphere")
        graph = network.graph
        measured = measure_distances(
            graph, UniformAbsoluteError(0.3), np.random.default_rng(3)
        )
        whole = build_frames(graph, measured)
        split = FrameBatch.concat([
            build_frames(graph, measured, nodes=range(graph.n_nodes // 2)),
            build_frames(
                graph, measured, nodes=range(graph.n_nodes // 2, graph.n_nodes)
            ),
        ])
        for a, b in zip(whole, split):
            assert a.members == b.members
            assert a.smacof_iterations == b.smacof_iterations
            assert a.coordinates.tobytes() == b.coordinates.tobytes()

    def test_pernode_matches_establish_local_frame(self):
        network = _small_network("sphere")
        measured = measure_distances(
            network.graph, NoError(), np.random.default_rng(0)
        )
        frames = build_frames(network.graph, measured, engine="pernode")
        direct = establish_local_frame(network.graph, measured, 7)
        assert frames.frame(7).members == direct.members
        assert np.array_equal(frames.frame(7).coordinates, direct.coordinates)

    def test_unknown_engine_rejected(self):
        network = _small_network("sphere")
        measured = measure_distances(
            network.graph, NoError(), np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="engine"):
            build_frames(network.graph, measured, engine="fast")


def _cluster_graph(m: int, *, seed: int = 0, collinear: bool = False):
    """A complete-graph cluster: every node's frame has exactly ``m`` members.

    Points are confined to a ball of radius 0.3 (radio range 1.0), so all
    pairs are mutually in range and each collection is the whole cluster.
    ``collinear=True`` places them on a line instead -- a fully degenerate
    (rank-1) configuration whose classical-MDS Gram matrix has two
    mathematically-zero eigenvalues.
    """
    rng = np.random.default_rng(seed)
    if collinear:
        positions = np.zeros((m, 3))
        positions[:, 0] = np.sort(rng.uniform(0.0, 0.6, size=m))
    else:
        positions = rng.uniform(-0.17, 0.17, size=(m, 3))
    return NetworkGraph(positions, radio_range=1.0)


def _all_engine_frames(graph, *, noise_seed: int = 5, nodes=None):
    measured = measure_distances(
        graph, UniformAbsoluteError(0.3), np.random.default_rng(noise_seed)
    )
    return {
        engine: build_frames(graph, measured, engine=engine, nodes=nodes)
        for engine in ENGINES_UNDER_TEST + ("pernode",)
    }


class TestExactMemberCounts:
    """Frames of exactly 7, 8, 9, 192 and 200 members.

    :data:`SCALAR_FALLBACK_MEMBERS` (= 8) routes sub-threshold frames to
    the scalar MDS kernel inside the sparse engine; 7/8/9 pin the
    below/at/above cases so a routing bug on either side of the boundary
    cannot hide in mixed-size networks.  192 and 200 are larger than any
    benchmark frame; only three nodes are compared there, which keeps the
    per-node oracle cheap (frames are batch-independent, so the three
    sparse frames equal those of a full sweep).
    """

    def test_boundary_straddles_the_fallback_constant(self):
        assert SCALAR_FALLBACK_MEMBERS == 8

    @pytest.mark.parametrize(
        "m",
        [
            SCALAR_FALLBACK_MEMBERS - 1,
            SCALAR_FALLBACK_MEMBERS,
            SCALAR_FALLBACK_MEMBERS + 1,
            192,
            200,
        ],
    )
    def test_engines_agree_at_exact_member_count(self, m):
        graph = _cluster_graph(m, seed=m)
        nodes = [0, m // 2, m - 1] if m > 100 else None
        frames = _all_engine_frames(graph, nodes=nodes)
        for engine_frames in frames.values():
            assert all(len(f.members) == m for f in engine_frames)
        for engine in ENGINES_UNDER_TEST:
            _assert_frames_observably_identical(
                frames[engine], frames["pernode"]
            )


class TestDegenerateFrames:
    def test_single_member_frame(self):
        """An isolated node's frame is just itself, in every engine."""
        positions = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [9.0, 0.0, 0.0]])
        graph = NetworkGraph(positions, radio_range=1.0)
        frames = _all_engine_frames(graph)
        for engine_frames in frames.values():
            for f in engine_frames:
                assert f.members == [f.node]
                assert f.n_one_hop == 0
                assert f.coordinates.shape == (1, 3)
        for engine in ENGINES_UNDER_TEST:
            _assert_frames_observably_identical(
                frames[engine], frames["pernode"]
            )

    @pytest.mark.parametrize("m", [5, 9, 16])
    def test_fully_collinear_frame(self, m):
        """Rank-1 configurations: degenerate eigenvalues must not break
        the cross-engine coordinate contract (the near-null eigenvectors
        are numerically arbitrary unless zeroed consistently)."""
        graph = _cluster_graph(m, seed=m, collinear=True)
        frames = _all_engine_frames(graph)
        for engine in ENGINES_UNDER_TEST:
            _assert_frames_observably_identical(
                frames[engine], frames["pernode"]
            )


def _completions(partial):
    """The numpy completion of ``partial``, plus native ``fw_complete``'s
    when the kernels load."""
    completed = [complete_distance_matrix(partial)]
    kernels = load_kernels()
    if kernels is not None:
        stack = np.array(partial, dtype=float)
        kernels.fw_complete(stack, UNREACHABLE_LOCAL_DISTANCE)
        completed.append(stack)
    return completed


class TestCompletionSentinel:
    """Pairs the measured subgraph cannot connect get
    :data:`UNREACHABLE_LOCAL_DISTANCE` -- not ``inf`` and not a path sum --
    from the numpy completion and from native ``fw_complete`` alike."""

    def test_unreachable_pairs_hit_the_sentinel(self):
        # Two 3-node components inside one 6-member frame: cross-component
        # pairs stay unreachable.
        m = 6
        partial = np.full((1, m, m), np.inf)
        diag = np.arange(m)
        partial[0, diag, diag] = 0.0
        for i, j in [(0, 1), (1, 2), (3, 4), (4, 5)]:
            partial[0, i, j] = partial[0, j, i] = 0.4
        completed = _completions(partial)
        for dist in completed:
            assert dist.tobytes() == completed[0].tobytes()
            assert dist[0, 0, 3] == UNREACHABLE_LOCAL_DISTANCE
            assert dist[0, 5, 2] == UNREACHABLE_LOCAL_DISTANCE
            assert dist[0, 0, 2] == pytest.approx(0.8)

    def test_fully_disconnected_frame_is_all_sentinel(self):
        m = 4
        partial = np.full((2, m, m), np.inf)
        diag = np.arange(m)
        partial[:, diag, diag] = 0.0
        off_diag = ~np.eye(m, dtype=bool)
        completed = _completions(partial)
        for dist in completed:
            assert dist.tobytes() == completed[0].tobytes()
            assert (dist[:, off_diag] == UNREACHABLE_LOCAL_DISTANCE).all()
            assert (dist[:, diag, diag] == 0.0).all()


class TestResidualVectorization:
    def test_matches_python_pair_loop(self):
        """Regression: the broadcasted residual equals the original loop."""
        network = _small_network("sphere")
        measured = measure_distances(
            network.graph, UniformAbsoluteError(0.3), np.random.default_rng(9)
        )
        frame = establish_local_frame(network.graph, measured, 11)
        members = np.asarray(frame.members, dtype=int)
        true_pts = network.graph.positions[members]
        est_pts = np.asarray(frame.coordinates, dtype=float)
        diffs = [
            np.linalg.norm(est_pts[a] - est_pts[b])
            - np.linalg.norm(true_pts[a] - true_pts[b])
            for a in range(len(members))
            for b in range(a + 1, len(members))
        ]
        expected = float(np.sqrt(np.mean(np.square(diffs))))
        assert frame_distance_residual(network.graph, frame) == pytest.approx(
            expected, rel=0, abs=1e-12
        )

    def test_degenerate_frame_is_zero(self):
        network = _small_network("sphere")
        frame = LocalFrame(
            node=0, members=[0], coordinates=np.zeros((1, 3)), n_one_hop=0
        )
        assert frame_distance_residual(network.graph, frame) == 0.0


class TestLocalizationConfig:
    def test_defaults_to_sparse(self):
        assert LocalizationConfig().engine == "sparse"
        assert DetectorConfig().localization_config.engine == "sparse"

    def test_rejects_unknown_engine(self):
        for engine in ("fast", "batch"):
            with pytest.raises(ValueError, match="engine"):
                LocalizationConfig(engine=engine)

    def test_engine_key_registered_with_cfg006(self):
        """repro-lint's config-key registry must know the new key."""
        import repro.core.config as config_module
        import inspect

        schema = extract_config_schema(inspect.getsource(config_module))
        assert "engine" in schema.classes["LocalizationConfig"].fields
        assert (
            schema.resolve_chain("DetectorConfig", "localization_config")
            == "LocalizationConfig"
        )
