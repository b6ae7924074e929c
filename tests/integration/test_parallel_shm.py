"""Shared-memory payload transport of the MDS frame pool.

``run_frames_parallel`` publishes the frame payload (node positions, CSR
adjacency, measured pairs and values) into one shared-memory segment and
hands workers only the segment descriptor and a few scalars; each worker
rebuilds its graph and measured distances from that segment.  These
tests pin the two contracts that transport must keep:

* **Byte-identity** -- frames are byte-identical for workers {1, 2, 4},
  under the *spawn* start method (the cold-import path: no inherited
  parent memory, everything travels through the segment), forced by
  patching ``parallel._pool_context`` in the parent, and under the
  platform default.
* **No payload through pickle** -- the pool's ``initargs`` are the same
  few hundred bytes whatever the network's size.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro import DeploymentConfig, generate_network, sphere_scenario
from repro.core import parallel
from repro.core.parallel import run_frames_parallel
from repro.network.measurement import UniformAbsoluteError, measure_distances

WORKER_COUNTS = (1, 2, 4)


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


def _measure(network):
    return measure_distances(
        network.graph, UniformAbsoluteError(0.3), np.random.default_rng(7)
    )


@pytest.fixture(scope="module")
def measured(sphere_network):
    return _measure(sphere_network)


class TestSpawnByteIdentity:
    @pytest.mark.parametrize("engine", ["sparse", "pernode"])
    def test_frames_byte_identical_across_worker_counts(
        self, sphere_network, measured, engine, monkeypatch
    ):
        reference = _frame_bytes(
            run_frames_parallel(
                sphere_network, measured, engine=engine, workers=1
            )
        )
        monkeypatch.setattr(
            parallel, "_pool_context", lambda: multiprocessing.get_context("spawn")
        )
        for workers in WORKER_COUNTS[1:]:
            frames = run_frames_parallel(
                sphere_network, measured, engine=engine, workers=workers
            )
            assert _frame_bytes(frames) == reference, (
                f"engine={engine} workers={workers} diverged under spawn"
            )

    def test_frames_byte_identical_under_default_pool_context(
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


class _PoolRecorded(Exception):
    """Raised by the recording pool once it has seen its ``initargs``."""


def _pool_initargs(monkeypatch, network):
    """The ``initargs`` a 2-worker MDS run hands its pool (no work runs)."""
    seen = []

    def recording_pool(*args, initargs=(), **kwargs):
        seen.append(initargs)
        raise _PoolRecorded

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", recording_pool)
    with pytest.raises(_PoolRecorded):
        run_frames_parallel(network, _measure(network), workers=2)
    (initargs,) = seen
    return initargs


def test_payload_arrays_never_travel_through_pickle(monkeypatch):
    sizes = {}
    for n_surface, n_interior in ((1200, 1800), (6000, 14000)):
        network = generate_network(
            sphere_scenario(),
            DeploymentConfig(
                n_surface=n_surface, n_interior=n_interior,
                target_degree=24.0, seed=11,
            ),
            scenario="sphere",
        )
        initargs = _pool_initargs(monkeypatch, network)
        # The descriptor covers every payload array, so the payload itself
        # is in the segment, not in the arguments.
        spec = initargs[0]
        assert {key for key, *_ in spec.arrays} == {
            "positions", "indptr", "indices", "pairs", "values"
        }
        assert not any(isinstance(arg, np.ndarray) for arg in initargs)
        sizes[network.graph.n_nodes] = len(pickle.dumps(initargs))
    small, large = (sizes[n] for n in sorted(sizes))
    # 6.7x the nodes and edges; only the integer widths of array shapes
    # in the descriptor may grow.
    assert large < 1024
    assert large - small <= 32, sizes
