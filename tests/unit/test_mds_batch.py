"""Stacked MDS steps versus per-matrix references, and the in-place FW fix.

Contract (see the :mod:`repro.geometry.mds` docstring): completion is
*bit-identical* per slice whether a matrix is completed alone or inside
a stack; the stacked eigensolve is bit-identical to scipy's ``evr``
subset driver; batched SMACOF matches the scalar refinement within
:data:`SMACOF_BATCH_COORD_TOL` while taking exactly the same number of
majorization steps.  These are the numpy kernels the sparse localization
engine runs when native kernels are unavailable.
"""

from __future__ import annotations

import ctypes
import hashlib

import numpy as np
import pytest
import scipy.linalg

from repro.geometry import mds, native
from repro.geometry.mds import (
    DEGENERATE_EIGENVALUE_RATIO,
    FW_CHUNK_SLICES,
    SMACOF_BATCH_COORD_TOL,
    classical_mds,
    classical_mds_from_gram_stack,
    complete_distance_matrix,
    local_mds_embedding,
    smacof_refine,
    smacof_refine_batch,
    torgerson_gram_batch,
)
from repro.geometry.native import load_kernels
from repro.network import localization
from repro.network.generator import DeploymentConfig, generate_network
from repro.network.measurement import UniformAbsoluteError, measure_distances
from repro.shapes.library import scenario_by_name
from tests.native_paths import on_path


def _random_partial_stack(rng, b, m, missing_fraction=0.4):
    """Symmetric partial distance matrices with inf-marked missing pairs."""
    stack = []
    for _ in range(b):
        pts = rng.uniform(0.0, 2.0, size=(m, 3))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        dist += rng.uniform(-0.1, 0.1, size=dist.shape)
        dist = np.abs((dist + dist.T) / 2.0)
        missing = rng.random((m, m)) < missing_fraction
        missing |= missing.T
        dist[missing] = np.inf
        np.fill_diagonal(dist, 0.0)
        stack.append(dist)
    return np.stack(stack)


def _smacof_inputs(partial):
    """Classical-MDS seeds, targets and weights of a partial-distance stack."""
    seeds = classical_mds_from_gram_stack(
        torgerson_gram_batch(complete_distance_matrix(partial))
    )
    measured = np.isfinite(partial)
    weights = measured.astype(float)
    diag = np.arange(partial.shape[1])
    weights[:, diag, diag] = 0.0
    return seeds, np.where(measured, partial, 0.0), weights


class TestInPlaceFloydWarshall:
    def test_results_unchanged_vs_reference_relaxation(self, rng):
        """The satellite fix: in-place relaxation equals the naive form."""
        partial = _random_partial_stack(rng, 1, 15)[0]
        reference = np.array(partial)
        m = reference.shape[0]
        for k in range(m):
            reference = np.minimum(
                reference, reference[:, k, None] + reference[None, k, :]
            )
        reference[~np.isfinite(reference)] = 2.0
        assert np.array_equal(complete_distance_matrix(partial), reference)

    def test_input_not_mutated(self, rng):
        partial = _random_partial_stack(rng, 1, 8)[0]
        before = partial.copy()
        complete_distance_matrix(partial)
        assert np.array_equal(partial, before, equal_nan=True)


class TestBatchedCompletion:
    @pytest.mark.parametrize("b", [1, FW_CHUNK_SLICES, FW_CHUNK_SLICES + 3])
    def test_bit_identical_per_slice(self, rng, b):
        stack = _random_partial_stack(rng, b, 12)
        batch = complete_distance_matrix(stack)
        for i in range(b):
            assert np.array_equal(batch[i], complete_distance_matrix(stack[i]))

    def test_rejects_non_stack_input(self):
        for shape in [(4,), (4, 5), (2, 4, 5), (1, 2, 4, 4)]:
            with pytest.raises(ValueError, match="B, m, m"):
                complete_distance_matrix(np.zeros(shape))


def _scipy_reference_embedding(gram):
    """Top-3 embedding of one Gram matrix through scipy's ``evr`` wrapper,
    with the library's clip, degenerate cutoff and sign rule."""
    m = gram.shape[0]
    vals, vecs = scipy.linalg.eigh(
        gram, subset_by_index=[m - 3, m - 1], driver="evr", lower=False
    )
    vals, vecs = vals[::-1], vecs[:, ::-1]
    vals = np.clip(vals, 0.0, None)
    vals = np.where(vals < DEGENERATE_EIGENVALUE_RATIO * vals[0], 0.0, vals)
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(3)]
    return vecs * np.where(peak < 0.0, -1.0, 1.0) * np.sqrt(vals)


class TestBatchedClassicalMDS:
    def test_bit_identical_per_slice(self, rng):
        """Every slice equals scipy's ``evr`` subset solve bit for bit.

        Sizes stop at 32 members: up to there LAPACK's tridiagonal
        reduction is unblocked.  Above it the block size follows the
        workspace, which scipy's wrapper sizes optimally and the raw
        per-slice call leaves at its default, so the two may differ in
        the last ulp.
        """
        for m in (3, 14, 32):
            stack = complete_distance_matrix(_random_partial_stack(rng, 9, m))
            gram = torgerson_gram_batch(stack)
            batch = classical_mds_from_gram_stack(gram.copy())
            for i in range(stack.shape[0]):
                expected = _scipy_reference_embedding(gram[i])
                assert batch[i].tobytes() == expected.tobytes()
                assert classical_mds(stack[i]).tobytes() == expected.tobytes()

    def test_lapack_error_falls_back_to_full_eigh(self, rng, monkeypatch):
        """A slice whose ``dsyevr`` call reports an error is embedded from
        ``np.linalg.eigh``'s full spectrum instead.  With native kernels a
        stand-in ``dsyevr`` that sets ``info = 1`` is handed to the C loop;
        without them this is the scipy-wrapper case below."""
        path = "native" if load_kernels() is not None else "fallback"
        _check_failing_dsyevr_falls_back(rng, monkeypatch, path)

    def test_lapack_error_falls_back_to_full_eigh_on_scipy_wrapper(
        self, rng, monkeypatch
    ):
        """Without native kernels, scipy's wrapper is replaced by one
        returning ``info = 1``."""
        _check_failing_dsyevr_falls_back(rng, monkeypatch, "fallback")


def _check_failing_dsyevr_falls_back(rng, monkeypatch, path):
    """Fail every ``dsyevr`` call on ``path``; the embedding must come from
    the full ``np.linalg.eigh`` spectrum and match the unfailed one."""
    gram = torgerson_gram_batch(
        complete_distance_matrix(_random_partial_stack(rng, 3, 10))
    )
    expected = classical_mds_from_gram_stack(gram.copy())

    calls = []
    if path == "native":
        def failing_dsyevr(*args):
            calls.append(1)
            args[20][0] = 1  # info

        failing = _DSYEVR_TYPE(failing_dsyevr)
        monkeypatch.setattr(
            native, "lapack_dsyevr",
            lambda: ctypes.cast(failing, ctypes.c_void_p).value,
        )
    else:
        def failing_syevr(a, **_):
            calls.append(1)
            return None, None, None, None, 1

        monkeypatch.setattr(mds, "_syevr", lambda: failing_syevr)
    with on_path(path):
        fallback = classical_mds_from_gram_stack(gram.copy())
    assert len(calls) == gram.shape[0]
    assert fallback.shape == expected.shape
    assert np.allclose(fallback, expected, rtol=0.0, atol=1e-9)


#: The Fortran signature the native loop calls ``dsyevr`` with: 20
#: pointers, ``info``, then three hidden string lengths.
_DSYEVR_TYPE = ctypes.CFUNCTYPE(
    None, *[ctypes.c_void_p] * 20, ctypes.POINTER(ctypes.c_int32),
    *[ctypes.c_size_t] * 3,
)


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


@pytest.mark.skipif(
    load_kernels() is None or native.lapack_dsyevr() is None,
    reason="no native kernels or no dsyevr symbol",
)
class TestNativeEigensolve:
    """The native ``dsyevr`` loop equals scipy's f2py call byte for byte:
    same routine, same arguments, same workspace sizes."""

    @pytest.mark.parametrize("m", [3, 7, 8, 32, 33, 70, 128])
    def test_matches_scipy_wrapper(self, rng, m):
        gram = torgerson_gram_batch(
            complete_distance_matrix(_random_partial_stack(rng, 6, m))
        )
        k = min(3, m)
        w, z, info = load_kernels().syevr_top(gram, k)
        ref_w, ref_z, ref_info = mds._syevr_top(gram, k)
        assert not info.any() and not ref_info.any()
        assert w.tobytes() == ref_w.tobytes()
        assert z.tobytes() == ref_z.tobytes()

    def test_rejects_bad_shapes(self):
        kernels = load_kernels()
        with pytest.raises(ValueError):
            kernels.syevr_top(np.zeros((2, 3, 4)), 3)
        with pytest.raises(ValueError):
            kernels.syevr_top(np.zeros((2, 3, 3)), 4)
        with pytest.raises(ValueError):
            kernels.syevr_top(np.zeros((2, 3, 3)), 0)

    def test_every_gram_stack_of_the_noisy_3k_sphere(self, monkeypatch):
        """Every Gram stack the sparse engine solves on the benchmark's
        30 %-error 3k sphere (seed 11), compared by digest."""
        net = generate_network(
            scenario_by_name("sphere"),
            DeploymentConfig(
                n_surface=1200, n_interior=1800, target_degree=24.0, seed=11
            ),
            scenario="sphere",
        )
        measured = measure_distances(
            net.graph, UniformAbsoluteError(0.3), np.random.default_rng(11)
        )
        stacks = []

        def capture(gram, n_components=3):
            stacks.append(gram.copy())
            return classical_mds_from_gram_stack(gram, n_components)

        monkeypatch.setattr(localization, "classical_mds_from_gram_stack", capture)
        localization.build_frames(net.graph, measured)
        assert sum(g.shape[0] for g in stacks) == net.n_nodes
        kernels = load_kernels()
        for gram in stacks:
            k = min(3, gram.shape[1])
            assert _digest(*kernels.syevr_top(gram, k)) == _digest(
                *mds._syevr_top(gram, k)
            )


class TestBatchedSmacof:
    def test_matches_scalar_within_tol_with_exact_steps(self, rng):
        stack = _random_partial_stack(rng, 13, 16)
        coords, steps = smacof_refine_batch(*_smacof_inputs(stack))
        for i in range(stack.shape[0]):
            scalar, scalar_steps = local_mds_embedding(stack[i])
            assert steps[i] == scalar_steps
            deviation = float(np.abs(coords[i] - scalar).max())
            assert deviation <= SMACOF_BATCH_COORD_TOL

    def test_scalar_step_count_is_exact(self, rng):
        """Capping the scalar refinement at its own reported step count
        reproduces its result bit for bit."""
        stack = _random_partial_stack(rng, 1, 12)[0]
        init = classical_mds(complete_distance_matrix(stack))
        weights = np.isfinite(stack).astype(float)
        np.fill_diagonal(weights, 0.0)
        target = np.where(np.isfinite(stack), stack, 0.0)
        coords, n_steps = smacof_refine(init, target, weights)
        assert 0 < n_steps <= 30
        capped, capped_steps = smacof_refine(
            init, target, weights, iterations=n_steps
        )
        assert capped_steps == n_steps
        assert capped.tobytes() == coords.tobytes()

    def test_refine_off_reports_zero_steps(self, rng):
        seeds, target, weights = _smacof_inputs(_random_partial_stack(rng, 4, 10))
        coords, steps = smacof_refine_batch(seeds, target, weights, iterations=0)
        assert coords.shape == (4, 10, 3)
        assert np.array_equal(coords, seeds)
        assert np.array_equal(steps, np.zeros(4, dtype=int))

    def test_early_convergers_freeze_while_others_refine(self, rng):
        """Per-slice stopping: a perfect slice stops early, a noisy one
        keeps iterating, and neither disturbs the other's result."""
        pts = rng.uniform(0.0, 2.0, size=(12, 3))
        exact = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        noisy = _random_partial_stack(rng, 1, 12)[0]
        stack = np.stack([exact, noisy])
        _, steps = smacof_refine_batch(*_smacof_inputs(stack))
        assert steps[1] == local_mds_embedding(noisy)[1]
        assert steps[0] == local_mds_embedding(exact)[1]
