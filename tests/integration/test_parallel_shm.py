"""Shared-memory payload transport: spawn-context regression tests.

``run_sharded`` publishes a task's numpy payload (network CSR arrays,
measured edge values) into one shared-memory segment and ships workers
an array-free task shell; each worker rehydrates the payload exactly
once from shared memory.  These tests pin the two
contracts that transport must keep:

* **Byte-identity** -- sharded output is byte-identical for workers
  {1, 2, 4}, under the *spawn* start method explicitly (the cold-import
  path: no inherited parent memory, everything travels through the
  segment) and under the platform default.
* **Single materialization** -- every shard runs against a payload that
  was installed exactly once in its worker process, observed through the
  per-process counter :data:`repro.core.parallel._MATERIALIZED` echoed
  back by ``_PayloadProbeTask``.

All tasks used here live in ``repro.core.parallel`` so spawn children can
unpickle them without importing this test module.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.parallel import _PayloadProbeTask, run_frames_parallel, run_sharded
from repro.network.measurement import UniformAbsoluteError, measure_distances

import numpy as np

WORKER_COUNTS = (1, 2, 4)

spawn_available = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable",
)


def _frame_bytes(frames):
    """Exact byte-level projection of a frame list."""
    return [
        (
            f.node,
            tuple(f.members),
            f.coordinates.tobytes(),
            f.n_one_hop,
            f.smacof_iterations,
        )
        for f in frames
    ]


@pytest.fixture(scope="module")
def measured(sphere_network):
    return measure_distances(
        sphere_network.graph, UniformAbsoluteError(0.3), np.random.default_rng(7)
    )


class TestSpawnByteIdentity:
    @spawn_available
    @pytest.mark.parametrize("engine", ["sparse", "pernode"])
    def test_frames_byte_identical_across_worker_counts(
        self, sphere_network, measured, engine
    ):
        reference = _frame_bytes(
            run_frames_parallel(
                sphere_network, measured, engine=engine, workers=1
            )
        )
        for workers in WORKER_COUNTS[1:]:
            frames = run_frames_parallel(
                sphere_network,
                measured,
                engine=engine,
                workers=workers,
                start_method="spawn",
            )
            assert _frame_bytes(frames) == reference, (
                f"engine={engine} workers={workers} diverged under spawn"
            )

    def test_frames_byte_identical_under_default_start_method(
        self, sphere_network, measured
    ):
        reference = _frame_bytes(
            run_frames_parallel(
                sphere_network, measured, engine="sparse", workers=1
            )
        )
        frames = run_frames_parallel(
            sphere_network, measured, engine="sparse", workers=2
        )
        assert _frame_bytes(frames) == reference


class TestSingleMaterialization:
    @spawn_available
    def test_each_shard_sees_exactly_one_install_spawn(self, sphere_network):
        probes = run_sharded(
            _PayloadProbeTask(sphere_network),
            range(sphere_network.graph.n_nodes),
            workers=2,
            start_method="spawn",
        )
        self._check(probes, sphere_network)

    def test_each_shard_sees_exactly_one_install_default(self, sphere_network):
        probes = run_sharded(
            _PayloadProbeTask(sphere_network),
            range(sphere_network.graph.n_nodes),
            workers=4,
        )
        self._check(probes, sphere_network)

    @staticmethod
    def _check(probes, network):
        n = network.graph.n_nodes
        assert sorted(node for node, _, _ in probes) == list(range(n))
        # The payload was rehydrated exactly once per worker, never per
        # shard: every probe observed the install counter at 1.
        assert {installs for _, installs, _ in probes} == {1}
        # ...and the rehydrated network is the real one, not a stub.
        assert {seen for _, _, seen in probes} == {n}

    def test_parent_process_never_materializes(self, sphere_network):
        from repro.core import parallel

        assert parallel._MATERIALIZED == 0
