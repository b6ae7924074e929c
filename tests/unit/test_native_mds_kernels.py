"""The native MDS kernels against their numpy twins, directly.

Contracts (see ``src/repro/geometry/ckernels.c``): ``fw_complete`` and
``center_gram`` are byte-equal to :func:`complete_distance_matrix` and
:func:`torgerson_gram_batch`; ``smacof_refine`` takes exactly the
scalar oracle's and the numpy twin's majorization steps with
coordinates within :data:`SMACOF_BATCH_COORD_TOL` (see
``_TWIN_EXACT_FIT`` for the one twin exception), and its own output is
pinned byte for byte by a SHA-256 digest.  Frame sizes cover the
register-blocked apply's tails on either side of 8, 16 and 32 lanes;
the Floyd-Warshall comparison adds a 200-member frame, past the largest
benchmark frames.

Frames whose measured-pair graph is disconnected are outside the
majorization's SPD fast path; every SMACOF twin hands them to the scalar
oracle, so they match it, and the connected frames sharing their chunk
are unaffected.  The native-only cases skip when the kernels do not
load (no C compiler, or ``REPRO_NATIVE=0``); the numpy-twin cases run
either way.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.geometry.mds import (
    SMACOF_BATCH_COORD_TOL,
    UNREACHABLE_LOCAL_DISTANCE,
    complete_distance_matrix,
    smacof_refine,
    smacof_refine_batch,
    torgerson_gram_batch,
)
from repro.geometry.native import load_kernels
from repro.network.graph import NetworkGraph
from repro.network.localization import build_frames
from repro.network.measurement import MeasuredDistances

#: Frame sizes: 1 and 2 are the degenerate ends; the rest straddle the
#: multiples of 8 and 16 the blocked kernels step in.
SIZES = (1, 2, 7, 8, 15, 16, 17, 33, 70, 127)

#: Majorization step budget (the engine uses 30): large enough that many
#: frames stop on the relative-stress rule rather than the budget, so
#: the step counts compared below vary.
ITERATIONS = 200

#: SHA-256 of ``smacof_refine``'s coordinates and step counts on
#: :func:`_pinned_chunk`, computed with the unblocked kernel (row dot
#: product apply, left-looking Cholesky, two edge passes per step).  The
#: blocked kernel keeps every element's operation order, so it must
#: reproduce the digest byte for byte, and so must any later one.
PINNED_SMACOF_SHA256 = (
    "3bd6e501b7f2b99a1059341fd25e9c26fa5382f0695c5e6e24b4d2b6a2a7d6f7"
)


@pytest.fixture(scope="module")
def native():
    kernels = load_kernels()
    if kernels is None:
        pytest.skip("native kernels unavailable")
    return kernels


def _partial_stack(rng, b, m, *, missing=0.5, dead_row=False, split=False):
    """Symmetric measured-distance stack, ``inf`` marking unmeasured pairs.

    ``dead_row`` leaves member ``m - 1`` with no measured pair at all;
    ``split`` removes every pair across the halves ``[0, m // 2)`` and
    ``[m // 2, m)``.
    """
    pts = rng.uniform(0.0, 2.0, size=(b, m, 3))
    dist = np.linalg.norm(pts[:, :, None] - pts[:, None, :], axis=-1)
    dist = dist * rng.uniform(0.8, 1.2, size=dist.shape)
    dist = (dist + np.swapaxes(dist, 1, 2)) / 2.0
    gone = rng.random((b, m, m)) < missing
    gone |= np.swapaxes(gone, 1, 2)
    dist[gone] = np.inf
    if dead_row:
        dist[:, m - 1, :] = np.inf
        dist[:, :, m - 1] = np.inf
    if split:
        half = m // 2
        dist[:, :half, half:] = np.inf
        dist[:, half:, :half] = np.inf
    diag = np.arange(m)
    dist[:, diag, diag] = 0.0
    return dist


def _frame(rng, m, *, noise=0.3, coincident=False, components=1):
    """One synthetic SMACOF frame: (seed coords, edge list, deltas).

    Members sit in a 1.5-wide cube.  Pairs closer than 0.9, and pairs
    at most 4 apart in member order (a band that keeps the frame rigid,
    like a dense hop collection), are measured with up to ``noise``
    relative error -- within each of ``components`` consecutive member
    blocks only, so no pair across blocks is measured.  Seeds are the true positions plus RNG
    noise -- no eigensolve -- so the inputs are the same on every
    machine.  ``coincident`` puts members 0 and 1 at one point, measured
    at 1e-6.
    """
    pts = rng.uniform(0.0, 1.5, size=(m, 3))
    if coincident:
        pts[1] = pts[0]
    block = np.arange(m) * components // max(m, 1)
    src, dst = np.triu_indices(m, k=1)
    true = np.linalg.norm(pts[src] - pts[dst], axis=1)
    band = dst - src <= 4
    keep = ((true < 0.9) | band) & (block[src] == block[dst])
    src, dst, true = src[keep], dst[keep], true[keep]
    delta = true * rng.uniform(1.0 - noise, 1.0 + noise, size=true.size)
    if coincident:
        delta[(src == 0) & (dst == 1)] = 1e-6
    seed = pts + rng.normal(scale=noise / 3.0, size=pts.shape)
    if coincident:
        seed[1] = seed[0]
    return seed, src.astype(np.int32), dst.astype(np.int32), delta


def _chunk(frames):
    """Concatenate frames into the native kernel's CSR chunk layout."""
    sizes = [f[0].shape[0] for f in frames]
    counts = [f[1].size for f in frames]
    frame_ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    edge_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    coords = np.concatenate([f[0] for f in frames]).astype(np.float64)
    src = np.concatenate([f[1] for f in frames]).astype(np.int32)
    dst = np.concatenate([f[2] for f in frames]).astype(np.int32)
    delta = np.concatenate([f[3] for f in frames]).astype(np.float64)
    return coords, frame_ptr, src, dst, delta, edge_ptr


def _native_refine(native, frames):
    coords, frame_ptr, src, dst, delta, edge_ptr = _chunk(frames)
    steps = native.smacof_refine(
        coords, frame_ptr, src, dst, delta, edge_ptr,
        iterations=ITERATIONS, tol=1e-6,
        max_members=int(np.diff(frame_ptr).max()),
    )
    return coords, steps


def _dense(frame):
    """(targets, weights) matrices of one frame, as the oracle takes them."""
    seed, src, dst, delta = frame
    m = seed.shape[0]
    target = np.zeros((m, m))
    weights = np.zeros((m, m))
    target[src, dst] = target[dst, src] = delta
    weights[src, dst] = weights[dst, src] = 1.0
    return target, weights


def _oracle(frame):
    target, weights = _dense(frame)
    return smacof_refine(frame[0], target, weights, iterations=ITERATIONS)


def _twin(frames):
    stack = np.stack([f[0] for f in frames])
    dense = [_dense(f) for f in frames]
    return smacof_refine_batch(
        stack,
        np.stack([t for t, _ in dense]),
        np.stack([w for _, w in dense]),
        iterations=ITERATIONS,
    )


def _pinned_chunk():
    rng = np.random.default_rng(20101)
    frames = [_frame(rng, m, noise=noise) for noise in (0.3, 0.01) for m in SIZES]
    frames.append(_frame(rng, 12, coincident=True))
    return frames


class TestFloydWarshall:
    @pytest.mark.parametrize("m", SIZES + (200,))
    def test_byte_equal_to_numpy_twin(self, native, m):
        rng = np.random.default_rng(m)
        partial = np.concatenate([
            _partial_stack(rng, 3, m),
            _partial_stack(rng, 2, m, dead_row=True),
            _partial_stack(rng, 2, m, split=True),
            _partial_stack(rng, 1, m, missing=1.0),
        ])
        expected = complete_distance_matrix(partial)
        stack = np.ascontiguousarray(partial)
        native.fw_complete(stack, UNREACHABLE_LOCAL_DISTANCE)
        assert stack.tobytes() == expected.tobytes()


class TestCenterGram:
    @pytest.mark.parametrize("m", SIZES)
    def test_byte_equal_to_numpy_twin(self, native, m):
        rng = np.random.default_rng(100 + m)
        completed = complete_distance_matrix(_partial_stack(rng, 4, m))
        expected = torgerson_gram_batch(completed)
        stack = completed.copy()
        native.center_gram(stack)
        assert stack.tobytes() == expected.tobytes()


#: A single measured pair (m = 2) is fitted exactly by the first step,
#: after which the numpy twin's algebraically expanded stress sits at its
#: cancellation floor (~1e-16) and its stopping rule is decided by
#: rounding.  The sparse engine never hands such frames to a batched
#: kernel (they are below ``SCALAR_FALLBACK_MEMBERS``).
_TWIN_EXACT_FIT = pytest.mark.xfail(
    strict=True, reason="numpy twin stops on rounding noise at an exact fit"
)


class TestSmacofRefine:
    @pytest.mark.parametrize("m", SIZES)
    def test_matches_scalar_oracle(self, native, m):
        rng = np.random.default_rng(200 + m)
        frames = [_frame(rng, m, noise=noise) for noise in (0.3, 0.3, 0.01, 0.01)]
        coords, steps = _native_refine(native, frames)
        for frame, got, n_steps in zip(frames, coords.reshape(4, m, 3), steps):
            expected, expected_steps = _oracle(frame)
            assert n_steps == expected_steps
            assert np.abs(got - expected).max(initial=0.0) <= SMACOF_BATCH_COORD_TOL

    @pytest.mark.parametrize(
        "m", [pytest.param(m, marks=_TWIN_EXACT_FIT) if m == 2 else m for m in SIZES]
    )
    def test_matches_numpy_twin(self, native, m):
        rng = np.random.default_rng(200 + m)
        frames = [_frame(rng, m, noise=noise) for noise in (0.3, 0.3, 0.01, 0.01)]
        coords, steps = _native_refine(native, frames)
        twin_coords, twin_steps = _twin(frames)
        assert steps.tolist() == twin_steps.tolist()
        deviation = np.abs(coords - twin_coords.reshape(-1, 3)).max(initial=0.0)
        assert deviation <= SMACOF_BATCH_COORD_TOL

    def test_coincident_pair(self, native):
        rng = np.random.default_rng(7)
        frames = [_frame(rng, 12, coincident=True) for _ in range(2)]
        coords, steps = _native_refine(native, frames)
        twin_coords, twin_steps = _twin(frames)
        assert steps.tolist() == twin_steps.tolist()
        assert np.abs(coords - twin_coords.reshape(-1, 3)).max() <= (
            SMACOF_BATCH_COORD_TOL
        )
        for frame, got, n_steps in zip(frames, coords.reshape(2, 12, 3), steps):
            expected, expected_steps = _oracle(frame)
            assert n_steps == expected_steps
            assert np.abs(got - expected).max() <= SMACOF_BATCH_COORD_TOL

    def test_output_bytes_pinned(self, native):
        coords, steps = _native_refine(native, _pinned_chunk())
        digest = hashlib.sha256(coords.tobytes() + steps.tobytes()).hexdigest()
        assert digest == PINNED_SMACOF_SHA256


def _mixed_chunk():
    """Two 10-member frames; frame 1 is two 5-member components."""
    rng = np.random.default_rng(31)
    return [_frame(rng, 10), _frame(rng, 10, components=2)]


class TestDisconnectedFrames:
    def test_native_matches_oracle(self, native):
        frames = _mixed_chunk()
        coords, steps = _native_refine(native, frames)
        for frame, got, n_steps in zip(frames, coords.reshape(2, 10, 3), steps):
            expected, expected_steps = _oracle(frame)
            assert n_steps == expected_steps
            assert np.abs(got - expected).max() <= SMACOF_BATCH_COORD_TOL
        solo, solo_steps = _native_refine(native, frames[:1])
        assert solo.tobytes() == coords[:10].tobytes()
        assert solo_steps[0] == steps[0]

    def test_numpy_twin_matches_oracle(self):
        frames = _mixed_chunk()
        coords, steps = _twin(frames)
        for frame, got, n_steps in zip(frames, coords, steps):
            expected, expected_steps = _oracle(frame)
            assert n_steps == expected_steps
            assert np.abs(got - expected).max() <= SMACOF_BATCH_COORD_TOL
        solo, solo_steps = _twin(frames[:1])
        assert solo.tobytes() == coords[:1].tobytes()
        assert solo_steps[0] == steps[0]

    def test_build_frames_matches_oracle(self):
        """A failed ranging (``inf``) on the only link between two 5-cliques
        splits the 10-member frames of its endpoints; a separate 10-clique
        contributes connected frames of the same size, hence the same
        chunk."""
        rng = np.random.default_rng(5)
        n = 20
        adjacency = [[] for _ in range(n)]
        for block in (range(0, 5), range(5, 10), range(10, 20)):
            for u in block:
                adjacency[u] = [v for v in block if v != u]
        adjacency[0].append(5)
        adjacency[5].append(0)
        graph = NetworkGraph(rng.uniform(0.0, 1.0, size=(n, 3)), adjacency=adjacency)
        values = {}
        for u, v in graph.edges():
            values[(u, v)] = graph.distance(u, v) * rng.uniform(0.7, 1.3)
        values[(0, 5)] = np.inf
        measured = MeasuredDistances(values)
        nodes = list(range(n))

        sparse = build_frames(graph, measured, nodes=nodes, engine="sparse")
        oracle = build_frames(graph, measured, nodes=nodes, engine="pernode")
        assert len(sparse.frame(0).members) == 10
        assert len(sparse.frame(10).members) == 10
        assert sparse.members.tolist() == oracle.members.tolist()
        assert sparse.smacof_iterations.tolist() == oracle.smacof_iterations.tolist()
        assert np.abs(sparse.coords - oracle.coords).max() <= SMACOF_BATCH_COORD_TOL

        connected = build_frames(graph, measured, nodes=[10], engine="sparse")
        assert connected.coords.tobytes() == sparse.frame(10).coordinates.tobytes()
