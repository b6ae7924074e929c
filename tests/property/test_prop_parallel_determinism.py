"""Determinism properties of the process-parallel shard driver.

Three properties pin the parallel paths to the sequential semantics:

* **Worker-count invariance** -- the serialized detection result must be
  *byte-identical* for ``workers`` in {1, 2, 4}.  Sharding, worker
  processes, and the merge must leave no trace in the output.
* **Node-relabeling invariance** -- permuting node IDs (same geometry,
  new labels) must permute the detected boundary set and nothing else.
  UBF is a per-node geometric predicate; its verdict cannot depend on the
  ID a node happens to carry.
* **Frame-stage invariance** -- ``run_frames_parallel`` (step I sharded
  over processes) must return byte-identical coordinates and identical
  SMACOF step counts for any worker count, in every localization mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BoundaryDetector, DetectorConfig
from repro.core.parallel import run_frames_parallel
from repro.core.ubf import run_ubf
from repro.io.serialization import save_detection_result
from repro.network.generator import DeploymentConfig, Network, generate_network
from repro.network.graph import NetworkGraph
from repro.network.measurement import UniformAbsoluteError, measure_distances
from repro.observability.tracer import TickClock, Tracer
from repro.shapes.library import sphere_scenario

WORKER_COUNTS = (1, 2, 4)


class TestWorkerCountInvariance:
    def test_serialized_result_is_byte_identical(self, sphere_network, tmp_path):
        payloads = {}
        for workers in WORKER_COUNTS:
            detector = BoundaryDetector(DetectorConfig(workers=workers))
            result = detector.detect(sphere_network)
            path = tmp_path / f"result_w{workers}.json"
            save_detection_result(result, path)
            payloads[workers] = path.read_bytes()
        reference = payloads[WORKER_COUNTS[0]]
        for workers, payload in payloads.items():
            assert payload == reference, (
                f"workers={workers} produced different serialized bytes"
            )

    def test_mds_detect_identical_across_workers_and_tracing(self, sphere_network):
        """At 30 % ranging error, UBF outcomes, boundary and groups are
        byte-identical for workers 1 and 2, traced or not; only the MDS
        frames shard, and a traced true-mode run cuts no shard at all."""
        runs = {}
        for workers in (1, 2):
            config = DetectorConfig(
                error_model=UniformAbsoluteError(0.3), workers=workers
            )
            for traced in (False, True):
                tracer = Tracer(clock=TickClock(), shard_clock=TickClock) if traced else None
                runs[workers, traced] = BoundaryDetector(config).detect(
                    sphere_network, rng=np.random.default_rng(11), tracer=tracer
                )
                if traced:
                    names = _span_names(tracer)
                    assert names.count("localization.shard") > 1
                    assert names.count("ubf") == 1 and "ubf.shard" not in names
        reference = runs[1, False]
        assert reference.localization_used == "mds"
        for key, result in runs.items():
            for name, want in vars(reference.ubf_outcomes).items():
                got = getattr(result.ubf_outcomes, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key
            assert result.candidates == reference.candidates, key
            assert result.boundary == reference.boundary, key
            assert result.groups == reference.groups, key

        tracer = Tracer(clock=TickClock(), shard_clock=TickClock)
        BoundaryDetector(DetectorConfig(workers=2)).detect(sphere_network, tracer=tracer)
        names = _span_names(tracer)
        assert "localization.frames" in names
        assert "localization.shard" not in names and "ubf.shard" not in names


def _span_names(tracer):
    names, stack = [], list(tracer.roots)
    while stack:
        span = stack.pop()
        names.append(span.name)
        stack.extend(span.children)
    return names


class TestNodeRelabelingInvariance:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_boundary_set_maps_through_permutation(self, sphere_network, workers):
        graph = sphere_network.graph
        rng = np.random.default_rng(42)
        perm = rng.permutation(graph.n_nodes)  # perm[new_id] = old_id

        permuted = Network(
            graph=NetworkGraph(
                graph.positions[perm], radio_range=graph.radio_range
            ),
            truth_boundary=sphere_network.truth_boundary[perm],
            scenario=sphere_network.scenario,
            scale=sphere_network.scale,
            config=sphere_network.config,
        )

        detector = BoundaryDetector(DetectorConfig(workers=workers))
        base = detector.detect(sphere_network)
        relabeled = detector.detect(permuted)

        # old boundary IDs, mapped into the permuted labeling
        old_to_new = np.empty(graph.n_nodes, dtype=int)
        old_to_new[perm] = np.arange(graph.n_nodes)
        expected_boundary = {int(old_to_new[v]) for v in base.boundary}
        expected_candidates = {int(old_to_new[v]) for v in base.candidates}

        assert relabeled.boundary == expected_boundary
        assert relabeled.candidates == expected_candidates
        assert sorted(map(len, relabeled.groups)) == sorted(map(len, base.groups))


@pytest.fixture(scope="module")
def measured_network():
    """A small sphere network with 30% measured-mode ranging error."""
    network = generate_network(
        sphere_scenario(),
        DeploymentConfig(n_surface=120, n_interior=200, target_degree=14, seed=8),
        scenario="sphere",
    )
    measured = measure_distances(
        network.graph, UniformAbsoluteError(0.3), np.random.default_rng(8)
    )
    return network, measured


def _frames_equal(a, b) -> bool:
    return (
        a.node == b.node
        and a.members == b.members
        and a.n_one_hop == b.n_one_hop
        and a.smacof_iterations == b.smacof_iterations
        and a.coordinates.tobytes() == b.coordinates.tobytes()
    )


class TestFrameStageWorkerInvariance:
    @pytest.mark.parametrize("mode", ("mds", "true"))
    def test_frames_byte_identical_across_worker_counts(
        self, measured_network, mode
    ):
        network, measured = measured_network
        reference = run_frames_parallel(network, measured, mode=mode, workers=1)
        assert [f.node for f in reference] == list(range(network.graph.n_nodes))
        for workers in WORKER_COUNTS[1:]:
            frames = run_frames_parallel(
                network, measured, mode=mode, workers=workers
            )
            assert all(_frames_equal(a, b) for a, b in zip(reference, frames)), (
                f"mode={mode} workers={workers} changed the frame bytes"
            )

    def test_engine_oracle_agrees_through_the_driver(self, measured_network):
        """Sharding composes with the engine contract: pernode through the
        driver yields the same members and step counts as batch."""
        network, measured = measured_network
        batch = run_frames_parallel(network, measured, workers=2)
        pernode = run_frames_parallel(
            network, measured, engine="pernode", workers=2
        )
        for a, b in zip(batch, pernode):
            assert a.members == b.members
            assert a.smacof_iterations == b.smacof_iterations

    def test_frames_feed_ubf_identically(self, measured_network):
        """UBF over precomputed frames equals UBF that localizes inline."""
        network, measured = measured_network
        frames = run_frames_parallel(network, measured, workers=2)
        with_frames = run_ubf(
            network, measured=measured, localization="mds", frames=frames
        )
        inline = run_ubf(network, measured=measured, localization="mds")
        assert with_frames == inline

    def test_invalid_mode_and_missing_measurements_rejected(
        self, measured_network
    ):
        network, _ = measured_network
        with pytest.raises(ValueError, match="mode"):
            run_frames_parallel(network, mode="fast")
        with pytest.raises(ValueError, match="measured"):
            run_frames_parallel(network, mode="mds")
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                run_frames_parallel(network, mode="true", workers=workers)
