"""Batched MDS kernels versus their scalar twins, and the in-place FW fix.

Contract (see the :mod:`repro.geometry.mds` docstring): completion and
classical MDS are *bit-identical* per slice; batched SMACOF matches the
scalar refinement within :data:`SMACOF_BATCH_COORD_TOL` while taking
exactly the same number of majorization steps.  These are the numpy
kernels the sparse localization engine runs when native kernels are
unavailable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.mds import (
    FW_CHUNK_SLICES,
    SMACOF_BATCH_COORD_TOL,
    classical_mds,
    classical_mds_from_gram_stack,
    complete_distance_matrix,
    complete_distance_matrix_batch,
    local_mds_embedding,
    smacof_refine,
    smacof_refine_batch,
    smacof_refine_counted,
    torgerson_gram_batch,
)


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
        torgerson_gram_batch(complete_distance_matrix_batch(partial))
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
        batch = complete_distance_matrix_batch(stack)
        for i in range(b):
            assert np.array_equal(batch[i], complete_distance_matrix(stack[i]))

    def test_rejects_non_stack_input(self):
        with pytest.raises(ValueError, match="B, m, m"):
            complete_distance_matrix_batch(np.zeros((4, 4)))


class TestBatchedClassicalMDS:
    def test_bit_identical_per_slice(self, rng):
        stack = complete_distance_matrix_batch(_random_partial_stack(rng, 9, 14))
        batch = classical_mds_from_gram_stack(torgerson_gram_batch(stack))
        for i in range(stack.shape[0]):
            assert np.array_equal(batch[i], classical_mds(stack[i]))


class TestBatchedSmacof:
    def test_matches_scalar_within_tol_with_exact_steps(self, rng):
        stack = _random_partial_stack(rng, 13, 16)
        coords, steps = smacof_refine_batch(*_smacof_inputs(stack))
        for i in range(stack.shape[0]):
            info = {}
            scalar = local_mds_embedding(stack[i], info=info)
            assert steps[i] == info["smacof_iterations"]
            deviation = float(np.abs(coords[i] - scalar).max())
            assert deviation <= SMACOF_BATCH_COORD_TOL

    def test_counted_wrapper_matches_uncounted(self, rng):
        stack = _random_partial_stack(rng, 1, 12)[0]
        completed = complete_distance_matrix(stack)
        init = classical_mds(completed)
        weights = np.isfinite(stack).astype(float)
        np.fill_diagonal(weights, 0.0)
        target = np.where(np.isfinite(stack), stack, 0.0)
        counted, n_steps = smacof_refine_counted(init, target, weights)
        assert np.array_equal(counted, smacof_refine(init, target, weights))
        assert n_steps > 0

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
        info = {}
        local_mds_embedding(noisy, info=info)
        assert steps[1] == info["smacof_iterations"]
        info_exact = {}
        local_mds_embedding(exact, info=info_exact)
        assert steps[0] == info_exact["smacof_iterations"]
