"""The batched UBF search holds a bounded working set.

On the numpy fallback, :data:`repro.geometry.ballfit.UBF_WORKING_SET_BYTES`
sizes the node slabs, Eq.-1 blocks and probe waves of one
:func:`repro.core.ubf.run_ubf` call, so once a network spans more than
one slab its peak traced allocation stays flat as the network grows.
Fixed node/pair counts (a whole network in one slab) would make it grow
linearly instead.

The fused native kernel builds no candidate array at all: its peak is
the per-node arrays alone (the gathered one-hop rows and the outcome
arrays), a small fraction of the budget that grows by a few hundred bytes
a node.

The frames are one :class:`~repro.network.localization.FrameBatch` built
before tracing starts, as ``detect()`` hands them over: a
``{node: LocalFrame}`` mapping would be packed inside the traced call,
an O(n) copy that is not part of the search.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import DeploymentConfig, generate_network, scenario_by_name
from repro.core.config import UBFConfig
from repro.core.ubf import run_ubf
from repro.geometry import ballfit
from repro.geometry.native import load_kernels
from repro.network.localization import true_frames

#: Bytes the native path's peak may grow per added node.  Measured at
#: about 670 B/node between the two spheres below (degree 18): ~32 B per
#: gathered one-hop row plus ~120 B of per-node outcome arrays.
NATIVE_BYTES_PER_NODE = 1024


def _sphere(n_surface: int, n_interior: int):
    network = generate_network(
        scenario_by_name("sphere"),
        DeploymentConfig(
            n_surface=n_surface, n_interior=n_interior, target_degree=18, seed=3
        ),
        scenario="sphere",
    )
    frames = true_frames(network.graph, range(network.graph.n_nodes))
    return network, frames


def _peak_traced_bytes(network, frames) -> int:
    tracemalloc.start()
    try:
        run_ubf(network, UBFConfig(), frames=frames)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def two_spheres():
    """Two sphere deployments, the second at twice the node count."""
    return _sphere(1000, 2000), _sphere(2000, 4000)


def test_networks_span_several_slabs(two_spheres):
    (small, frames), _ = two_spheres
    slab_bytes = int(
        ballfit.search_bytes(frames.n_one_hop, np.diff(frames.ptr)).sum()
    )
    assert slab_bytes > 2 * ballfit.UBF_WORKING_SET_BYTES


def test_peak_does_not_grow_with_network_size(two_spheres, monkeypatch):
    """The numpy fallback stays within its budget as the network doubles."""
    monkeypatch.setattr(ballfit, "_native_ubf_kernels", lambda: None)
    (small, small_frames), (large, large_frames) = two_spheres
    assert large.graph.n_nodes == 2 * small.graph.n_nodes
    small_peak = _peak_traced_bytes(small, small_frames)
    large_peak = _peak_traced_bytes(large, large_frames)
    # Only per-node arrays grow with n (the outcome arrays and the gathered
    # one-hop rows, a few hundred bytes a node); the search itself stays
    # within a small multiple of the budget.
    assert large_peak < 1.25 * small_peak
    assert large_peak < 2 * ballfit.UBF_WORKING_SET_BYTES


@pytest.mark.skipif(
    load_kernels() is None, reason="no C compiler / native kernels disabled"
)
def test_native_peak_is_per_node_arrays_only(two_spheres):
    """The fused kernel holds no budget-sized temporaries at all."""
    (small, small_frames), (large, large_frames) = two_spheres
    small_peak = _peak_traced_bytes(small, small_frames)
    large_peak = _peak_traced_bytes(large, large_frames)
    assert large_peak < ballfit.UBF_WORKING_SET_BYTES / 4
    growth = (large_peak - small_peak) / (
        large.graph.n_nodes - small.graph.n_nodes
    )
    assert growth < NATIVE_BYTES_PER_NODE
