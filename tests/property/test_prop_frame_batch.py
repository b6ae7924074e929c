"""Property tests at the frame-batch boundary between localization and UBF.

Random small deployments with the degenerate shapes the fast paths must
survive injected -- an isolated node, a coincident twin and a collinear
chain -- and node subsets that are unsorted, duplicated or empty:

* the true-mode :class:`FrameBatch` equals the per-node oracle frames
  (``true_local_frame``) packed by :meth:`FrameBatch.from_frames`, on
  member IDs, segment pointers, one-hop counts and coordinate bytes;
* ``run_ubf(frames=batch)`` equals the ``naive`` kernel run frame by
  frame on every node's verdict, ``balls_tested`` and ``points_checked``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import UBFConfig
from repro.core.parallel import run_frames_parallel
from repro.core.ubf import localize_frames, run_ubf, ubf_classify_frame
from repro.network.generator import Network
from repro.network.graph import NetworkGraph
from repro.network.localization import FrameBatch, true_local_frame

RADIUS = UBFConfig().radius


@st.composite
def deployments(draw):
    """A random cloud plus an isolated node, a twin and a collinear chain."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cloud = draw(st.integers(3, 30))
    cloud = rng.uniform(0.0, 2.5, size=(n_cloud, 3))
    far = cloud.max(axis=0) + 10.0
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    n_chain = draw(st.integers(3, 6))
    chain = far + 5.0 + np.outer(np.arange(n_chain) * 0.4, direction)
    twin = cloud[draw(st.integers(0, n_cloud - 1))]
    positions = np.vstack([cloud, far, twin, chain])
    return Network(
        graph=NetworkGraph(positions, radio_range=1.0),
        truth_boundary=np.zeros(len(positions), dtype=bool),
        scenario="prop",
    )


@st.composite
def cases(draw):
    network = draw(deployments())
    n = network.graph.n_nodes
    subset = draw(
        st.one_of(
            st.just(list(range(n))),
            st.just([]),
            st.lists(st.integers(0, n - 1), max_size=2 * n),  # unsorted, dups
        )
    )
    return network, subset, draw(st.integers(1, 3))


def _oracle_batch(graph, subset, hops):
    return FrameBatch.from_frames(
        [true_local_frame(graph, v, hops=hops) for v in subset]
    )


@given(cases())
@settings(max_examples=60, deadline=None)
def test_true_batch_matches_per_node_oracle(case):
    network, subset, hops = case
    batch = run_frames_parallel(network, mode="true", hops=hops, nodes=subset)
    oracle = _oracle_batch(network.graph, subset, hops)
    assert batch.nodes.tolist() == list(subset)
    assert np.array_equal(batch.ptr, oracle.ptr)
    assert np.array_equal(batch.members, oracle.members)
    assert np.array_equal(batch.n_one_hop, oracle.n_one_hop)
    assert batch.coords.dtype == oracle.coords.dtype
    assert batch.coords.tobytes() == oracle.coords.tobytes()
    assert not batch.smacof_iterations.any()


@given(cases(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_ubf_on_batch_matches_naive_per_frame(case, find_first):
    network, subset, hops = case
    batch = localize_frames(network.graph, None, subset, mode="true", hops=hops)
    outcomes = run_ubf(network, UBFConfig(), frames=batch, find_first=find_first)
    assert outcomes.node.tolist() == list(subset)
    for outcome, v in zip(outcomes, subset):
        frame = true_local_frame(network.graph, v, hops=hops)
        want = ubf_classify_frame(
            frame, RADIUS, find_first=find_first, kernel="naive"
        )
        assert outcome.is_candidate == want.is_boundary, v
        assert outcome.balls_tested == want.balls_tested, v
        assert outcome.points_checked == want.points_checked, v
        assert outcome.neighborhood_size == len(frame.members) - 1, v
