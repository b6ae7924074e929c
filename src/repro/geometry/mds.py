"""Multidimensional scaling for local coordinate establishment.

Step (I) of Algorithm 1: every node collects the (noisy) pairwise distances
within its one-hop neighborhood and embeds them into a private 3D coordinate
frame.  The paper adopts improved MDS-based localization (Shang & Ruml); the
same family is implemented here:

1. missing pairwise distances (neighbor pairs that are out of radio range of
   each other) are completed with shortest-path distances over the measured
   local graph (:func:`complete_distance_matrix`), and
2. the completed matrix is embedded with classical (Torgerson) MDS
   (:func:`classical_mds`).

The resulting frame is arbitrary up to rotation/translation/reflection,
which UBF is invariant to.

Batched forms
-------------
Every step takes a ``(B, m, m)`` stack of same-size neighborhoods, so the
sparse localization engine runs it once per stack while the ``pernode``
oracle passes 1-stacks: :func:`complete_distance_matrix` (also accepts
one ``(m, m)`` matrix), :func:`torgerson_gram_batch` with
:func:`classical_mds_from_gram_stack` (which :func:`classical_mds` wraps),
and :func:`smacof_refine_batch`.  Stacking ``B`` same-size problems
amortizes numpy call overhead ``B``-fold and lets the LAPACK stages run
as tight loops instead of one wrapped call per node.  The native kernels
of :mod:`repro.geometry.native` (``fw_complete``, ``center_gram``,
``smacof_refine``) are the compiled twins of these steps, and
``syevr_top`` runs the eigensolve's ``dsyevr`` calls in one C loop that
equals scipy's f2py call (:func:`_syevr`) bit for bit without importing
``scipy.linalg``.

Completion and classical MDS are one function each, so every engine gets
*bit-identical* results from them.  SMACOF keeps two forms: the scalar
oracle :func:`smacof_refine` and :func:`smacof_refine_batch`, which
restructures the iteration arithmetic for memory locality (Gram-identity
distances, algebraically expanded stress).  Its slices match the oracle
within :data:`SMACOF_BATCH_COORD_TOL` with *exactly* equal iteration
counts -- the engine contract the differential tests in
``tests/unit/test_localization_engines.py`` pin down (see
docs/PERFORMANCE.md, "Localization engine").
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

#: Distance assigned to node pairs unreachable inside the local subgraph.
#: Two one-hop neighbors of the same node can be at most two radio ranges
#: apart, so 2.0 (in radio-range units) is the geometrically safe ceiling.
UNREACHABLE_LOCAL_DISTANCE = 2.0

#: Coordinate agreement tolerance (absolute, in radio-range units) between
#: the scalar and batched SMACOF refinements.  The batched chain reorders
#: float reductions, so individual operations differ at the last ulp; the
#: majorization update is a contraction near its fixed point, keeping the
#: accumulated divergence many orders of magnitude below this bound
#: (observed maxima are ~1e-12 on 2000-node scenarios).
SMACOF_BATCH_COORD_TOL = 1e-9

#: Slices per Floyd-Warshall sub-chunk in the batched completion; two
#: ``(chunk, m, m)`` float arrays at typical collection sizes stay within
#: the L2 cache, which the relaxation's m full passes reward.
FW_CHUNK_SLICES = 8

#: Eigenvalues below this fraction of the leading eigenvalue are treated
#: as exact zeros by classical MDS.  Such directions are pure rounding
#: noise (a fully collinear collection has two mathematically-zero
#: eigenvalues that materialize as ~1e-16 * lambda_max), and their
#: eigenvectors are numerically arbitrary -- different LAPACK drivers
#: return entirely different bases for the near-null subspace, which
#: would break the cross-engine coordinate contract.  Zeroing them makes
#: every engine emit the same (zero) coordinate for a degenerate axis.
DEGENERATE_EIGENVALUE_RATIO = 1e-12


def complete_distance_matrix(partial: np.ndarray) -> np.ndarray:
    """Fill unknown entries of partial distance matrices via shortest paths.

    Parameters
    ----------
    partial:
        One ``(m, m)`` matrix or a ``(B, m, m)`` stack of them (a matrix is
        completed as a 1-stack).  Each is symmetric; ``partial[..., i, j]``
        is the measured distance between local nodes ``i`` and ``j``, or
        ``inf`` when the pair is out of range of each other.  The diagonal
        is taken as zero.

    Returns
    -------
    numpy.ndarray
        Completed matrices of the input's shape with no infinities: pairs
        still unreachable after completion (disconnected local subgraphs)
        get :data:`UNREACHABLE_LOCAL_DISTANCE`.

    Notes
    -----
    The completion is plain Floyd-Warshall over numpy broadcasting, the
    arithmetic the native ``fw_complete`` kernel mirrors byte for byte.
    The relaxation runs fully in place: one scratch buffer holds the
    ``via k`` sums and ``np.minimum(..., out=...)`` folds them back, so no
    per-``k`` arrays are allocated.  (In-place per-``k`` relaxation is
    sound because iteration ``k`` never changes row or column ``k``: the
    candidate for ``dist[i, k]`` is ``dist[i, k] + dist[k, k] =
    dist[i, k]``.)  Slices are relaxed in sub-chunks of
    :data:`FW_CHUNK_SLICES` so the pair of ``(chunk, m, m)`` working
    arrays stays cache-resident; each slice's relaxation is independent,
    so chunking cannot change the result.
    """
    dist = np.array(partial, dtype=float)
    if dist.ndim not in (2, 3) or dist.shape[-1] != dist.shape[-2]:
        raise ValueError("partial distances must be (m, m) or (B, m, m)")
    stack = dist.reshape((-1,) + dist.shape[-2:])
    m = stack.shape[1]
    diag = np.arange(m)
    stack[:, diag, diag] = 0.0
    n_chunk = max(1, min(FW_CHUNK_SLICES, stack.shape[0]))
    via_k = np.empty((n_chunk, m, m))
    for c in range(0, stack.shape[0], n_chunk):
        block = stack[c : c + n_chunk]
        via = via_k[: block.shape[0]]
        for k in range(m):
            np.add(block[:, :, k, None], block[:, None, k, :], out=via)
            np.minimum(block, via, out=block)
    dist[~np.isfinite(dist)] = UNREACHABLE_LOCAL_DISTANCE
    return dist


def _canonicalize_axis_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns to a driver-independent sign convention.

    An eigenvector's sign is arbitrary, and different LAPACK drivers
    (``syevd`` behind ``np.linalg.eigh``, MRRR ``syevr``) make different
    choices.  Each column is flipped so that its largest-magnitude
    component is positive; negation is exact in IEEE arithmetic, so the
    convention costs no precision.  Operates on the trailing two axes of a
    ``(..., m, k)`` stack and returns a new array.
    """
    if vecs.shape[-2] == 0 or vecs.shape[-1] == 0:
        return vecs
    amax = np.argmax(np.abs(vecs), axis=-2)
    picked = np.take_along_axis(vecs, amax[..., None, :], axis=-2)
    return vecs * np.where(picked < 0.0, -1.0, 1.0)


def torgerson_gram_batch(distances: np.ndarray) -> np.ndarray:
    """Double-center a distance stack into the classical-MDS Gram stack.

    Computes ``-1/2 J D^2 J`` for every ``(m, m)`` slice using the O(m^2)
    mean-subtraction identity (``J S J = S - r 1^T - 1 r^T + t`` with row
    means ``r`` and total mean ``t``).  Every engine centers through this
    one routine (or its bit-identical native twin ``center_gram_batch``):
    the classical-MDS seed must match across engines bit for bit, because
    SMACOF's ``t / d`` majorization terms amplify seed differences by
    orders of magnitude on frames with near-zero measured distances.
    Accepts a single ``(m, m)`` matrix or any ``(..., m, m)`` stack; the
    per-slice reduction order is identical either way.
    """
    sq = np.ascontiguousarray(distances, dtype=float) ** 2
    row = sq.mean(axis=-1, keepdims=True)
    total = row.mean(axis=-2, keepdims=True)
    return -0.5 * (sq - row - np.swapaxes(row, -1, -2) + total)


@functools.lru_cache(maxsize=None)
def _syevr():
    """scipy's f2py wrapper of LAPACK ``dsyevr``.

    The eigensolve's path when the native kernels or the ``dsyevr``
    symbol are missing, and the oracle the native loop
    (:meth:`repro.geometry.native.NativeKernels.syevr_top`) is tested
    against: both reach the same LAPACK routine with the same arguments.
    Importing it loads ``scipy.linalg``, which the native loop avoids.
    """
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("syevr",), (np.empty((1, 1)),))[0]


def _syevr_top(gram: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(w, z, info)`` of :meth:`NativeKernels.syevr_top`, one
    :func:`_syevr` call per slice."""
    n_batch, m, _ = gram.shape
    w_all = np.empty((n_batch, k))
    z_all = np.empty((n_batch, k, m))
    info_all = np.zeros(n_batch, dtype=np.int32)
    syevr = _syevr()
    for b in range(n_batch):
        w, z, _, _, info = syevr(
            gram[b], compute_v=1, range="I", il=m - k + 1, iu=m, lower=0
        )
        info_all[b] = info
        if info == 0:
            w_all[b] = w[:k]
            z_all[b] = z.T
    return w_all, z_all, info_all


def classical_mds_from_gram_stack(
    gram: np.ndarray, n_components: int = 3
) -> np.ndarray:
    """Embed a ``(B, m, m)`` stack of pre-centered Gram matrices.

    The one classical-MDS eigensolve every engine runs: one LAPACK
    ``dsyevr`` call per slice (MRRR, top ``n_components`` eigenpairs only,
    ~5x cheaper than a full ``syevd`` factorization at typical frame
    sizes), with the clip / degenerate-cutoff / sign-canonicalization /
    scaling epilogue vectorized across the whole stack.  With native
    kernels the calls run in one C loop
    (:meth:`~repro.geometry.native.NativeKernels.syevr_top`), which
    imports no scipy module; otherwise each goes through scipy's f2py
    wrapper (:func:`_syevr`).  Both call the same routine with the same
    arguments and workspace, so they agree bit for bit.  A slice on which
    ``dsyevr`` reports an error falls back to the full
    ``np.linalg.eigh`` spectrum.  Because the ``pernode`` oracle (through
    :func:`classical_mds`) and the sparse engine share this solve, the
    classical-MDS seed is bit-identical across engines -- a hard
    requirement, since the SMACOF refinement that follows can amplify a
    last-ulp seed difference past the 1e-9 engine contract on
    ill-conditioned frames.
    """
    # Imported here: repro.geometry.native imports this module.
    from repro.geometry.native import load_kernels

    n_batch, m, _ = gram.shape
    if m == 0:
        return np.zeros((n_batch, 0, n_components))
    k = min(n_components, m)
    kernels = load_kernels()
    solved = kernels.syevr_top(gram, k) if kernels is not None else None
    w, z, info = solved if solved is not None else _syevr_top(gram, k)
    for b in np.flatnonzero(info).tolist():
        full_w, full_z = np.linalg.eigh(gram[b])
        w[b] = full_w[m - k :]
        z[b] = full_z[:, m - k :].T
    vals = np.ascontiguousarray(w[:, ::-1])
    vecs = np.ascontiguousarray(np.swapaxes(z, 1, 2)[:, :, ::-1])
    top_vals = np.clip(vals, 0.0, None)
    top_vals = np.where(
        top_vals < DEGENERATE_EIGENVALUE_RATIO * top_vals[..., :1], 0.0, top_vals
    )
    coords = _canonicalize_axis_signs(vecs) * np.sqrt(top_vals)[:, None, :]
    if k < n_components:
        pad = np.zeros((n_batch, m, n_components - k))
        coords = np.concatenate([coords, pad], axis=2)
    return coords


def classical_mds(distances: np.ndarray, n_components: int = 3) -> np.ndarray:
    """Classical (Torgerson) MDS embedding of a distance matrix.

    Double-centers the squared distance matrix via
    :func:`torgerson_gram_batch` and takes the top ``n_components``
    eigenpairs via :func:`classical_mds_from_gram_stack` on a 1-stack --
    the exact chain the sparse engine runs per frame, so the seed every
    engine hands to SMACOF is bit-identical.  Negative eigenvalues (which
    arise when the input is not exactly Euclidean, e.g. after
    shortest-path completion or under measurement noise) are clipped to
    zero; eigenvalues below :data:`DEGENERATE_EIGENVALUE_RATIO` of the
    leading one are zeroed (their eigenvectors are numerically
    arbitrary), and eigenvector signs follow the canonical convention of
    :func:`_canonicalize_axis_signs` so every engine produces the same
    embedding.

    Parameters
    ----------
    distances:
        Square symmetric matrix of (approximate) Euclidean distances.
    n_components:
        Embedding dimension; 3 for this library.

    Returns
    -------
    numpy.ndarray
        ``(m, n_components)`` coordinates, centered at the origin.
    """
    dist = np.asarray(distances, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    if dist.shape[0] == 0:
        return np.empty((0, n_components))
    if not np.all(np.isfinite(dist)):
        raise ValueError("distance matrix must be finite; complete it first")
    gram = torgerson_gram_batch(dist)[None]
    coords = classical_mds_from_gram_stack(gram, n_components)[0]
    # Column-major, as LAPACK returns eigenvectors: the layout picks the
    # BLAS path (and rounding) of SMACOF's first ``B @ X`` product, and
    # the ``pernode`` oracle's frames are pinned byte for byte with it.
    return np.asfortranarray(coords)


def smacof_refine(
    coords: np.ndarray,
    distances: np.ndarray,
    weights: np.ndarray,
    *,
    iterations: int = 30,
    tol: float = 1e-6,
) -> Tuple[np.ndarray, int]:
    """Weighted stress majorization (SMACOF) refinement of an embedding.

    Improves ``coords`` so that pairwise embedded distances match
    ``distances`` where ``weights`` is positive.  This is the "improved" in
    improved-MDS localization [31]: the classical-MDS solution (computed on
    a shortest-path-completed matrix, which *overestimates* non-adjacent
    distances) is refined against the actually *measured* distances only.

    Parameters
    ----------
    coords:
        ``(m, d)`` initial embedding.
    distances:
        ``(m, m)`` target distances; entries with zero weight are ignored.
    weights:
        ``(m, m)`` symmetric non-negative weights with a zero diagonal.
    iterations:
        Maximum majorization steps.
    tol:
        Relative stress-improvement threshold for early stopping.

    Returns
    -------
    (coords, steps):
        Refined ``(m, d)`` coordinates (a new array) and the majorization
        steps taken.  The step count is a deterministic observable of the
        refinement (it depends only on the inputs), so every engine must
        reproduce it exactly -- it is one of the counters the localization
        bench compares between engines.
    """
    x = np.array(coords, dtype=float)
    m = x.shape[0]
    w = np.asarray(weights, dtype=float)
    d_target = np.asarray(distances, dtype=float)
    if m <= 1 or not np.any(w > 0):
        return x, 0

    # Moore-Penrose inverse of the weight Laplacian, computed once.
    v = -w.copy()
    np.fill_diagonal(v, w.sum(axis=1))
    v_pinv = np.linalg.pinv(v + np.full((m, m), 1.0 / m)) - np.full((m, m), 1.0 / m)

    def embedded_distances(y: np.ndarray) -> np.ndarray:
        diff = y[:, None, :] - y[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def stress(y: np.ndarray) -> float:
        d = embedded_distances(y)
        return float(np.sum(w * (d - d_target) ** 2) / 2.0)

    last = stress(x)
    n_steps = 0
    for _ in range(iterations):
        d = embedded_distances(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d > 1e-12, d_target / d, 0.0)
        b = -w * ratio
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        x = v_pinv @ (b @ x)
        n_steps += 1
        current = stress(x)
        if last - current <= tol * max(last, 1e-12):
            break
        last = current
    return x, n_steps


def _weight_graphs_connected(weights: np.ndarray) -> np.ndarray:
    """Per slice of a ``(B, m, m)`` weight stack: is ``weights > 0`` connected?

    One ``connected_components`` call over the block-diagonal graph of
    the whole stack (``O(B m^2)`` to gather the edges, ``O(edges)`` to
    label them); a slice is connected when all its members share a label.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n_batch, m, _ = weights.shape
    if n_batch == 0:
        return np.zeros(0, dtype=bool)
    sb, si, sj = np.nonzero(weights > 0)
    graph = csr_matrix(
        (np.ones(sb.size), (sb * m + si, sb * m + sj)),
        shape=(n_batch * m, n_batch * m),
    )
    _, labels = connected_components(graph, directed=False)
    labels = labels.reshape(n_batch, m)
    return (labels == labels[:, :1]).all(axis=1)


def smacof_refine_batch(
    coords: np.ndarray,
    distances: np.ndarray,
    weights: np.ndarray,
    *,
    iterations: int = 30,
    tol: float = 1e-6,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched SMACOF over ``(B, m, d)`` embeddings with per-slice stopping.

    Runs the majorization of :func:`smacof_refine` on every slice
    of the stack simultaneously, restructured for throughput:

    * embedded distances use the Gram identity
      ``d_ij^2 = |y_i|^2 + |y_j|^2 - 2 <y_i, y_j>`` (one gemm plus
      ``O(m^2)`` traffic instead of the ``O(m^2 d)`` pairwise-difference
      tensor), clipping cancellation negatives before the square root;
    * the stress is expanded algebraically,
      ``2 sigma = sum w d^2 - 2 sum (w t) d + sum w t^2``, so each check is
      two einsum reductions against precomputed per-slice constants;
    * the majorization matrix comes straight from the precomputed
      ``-w t`` product (one divide, no ratio intermediate);
    * all work buffers are allocated once and re-sliced, distances are
      computed once per step (reused across the B-matrix and the stress),
      and the live set is compacted only on steps where a slice converged.

    Slices converge independently: a converged slice is frozen and dropped
    from the live set while the rest keep iterating, so per-slice *step
    counts* reproduce the scalar early-stopping sequence exactly (the
    convergence test sees the same stress values up to a relative
    float-reassociation error of ~1e-13, see below).  Coordinates match
    ``smacof_refine`` within :data:`SMACOF_BATCH_COORD_TOL`: the
    reordered reductions differ from the scalar chain only at the
    last-ulp level per operation, and the majorization update is a
    contraction near the fixed point, so the engines' iterates never
    drift beyond that tolerance.  Slices whose weight graph is
    disconnected (a singular majorization system) are refined by
    :func:`smacof_refine` itself, so they equal it bit for bit.

    Returns
    -------
    (coords, steps):
        The refined ``(B, m, d)`` stack and an ``(B,)`` int array of
        majorization steps per slice.
    """
    x = np.array(coords, dtype=float)
    if x.ndim != 3:
        raise ValueError("coords stack must be (B, m, d)")
    n_batch, m, n_dim = x.shape
    w_all = np.asarray(weights, dtype=float)
    t_all = np.asarray(distances, dtype=float)
    steps = np.zeros(n_batch, dtype=int)
    if n_batch == 0 or m <= 1:
        return x, steps
    live = np.nonzero(np.any(w_all > 0, axis=(1, 2)))[0]
    # The weight Laplacian V is PSD with nullspace span(1) exactly when
    # the weight graph is connected -- true by construction for BFS-built
    # collections (every hop-k member has a measured edge to a
    # hop-(k-1) parent) -- and then V + 11^T/m is symmetric positive
    # definite with plain inverse pinv(V) + 11^T/m, which a batched LU
    # computes several times cheaper than a pseudo-inverse.  A
    # disconnected weight graph makes V + 11^T/m singular, yet LU does
    # not reliably raise on it (rounding leaves a tiny nonzero pivot and
    # a garbage inverse), so such slices are found up front and handed
    # to the scalar oracle, whose pseudo-inverse handles them.
    split = ~_weight_graphs_connected(w_all[live])
    for b in live[split].tolist():
        x[b], steps[b] = smacof_refine(
            x[b], t_all[b], w_all[b], iterations=iterations, tol=tol
        )
    live = live[~split]
    if live.size == 0:
        return x, steps

    diag = np.arange(m)
    w = w_all[live]
    t = t_all[live]
    v = -w.copy()
    v[:, diag, diag] = w.sum(axis=2)
    correction = np.full((m, m), 1.0 / m)
    v_pinv = np.linalg.inv(v + correction)
    v_pinv -= correction
    xa = x[live]

    # Per-slice constants of the iteration.
    neg_wt = -(w * t)
    wtt = np.einsum("bij,bij->b", w, t * t)

    # Preallocated work buffers, re-sliced to the live count every step.
    n_live = live.size
    norms = np.empty((n_live, m))
    gram = np.empty((n_live, m, m))
    sq = np.empty((n_live, m, m))
    dist = np.empty((n_live, m, m))
    bmat = np.empty((n_live, m, m))
    degenerate = np.empty((n_live, m, m), dtype=bool)
    close_mask = np.empty((n_live, m, m), dtype=bool)
    y2 = np.empty((n_live, m, n_dim))
    bx = np.empty((n_live, m, n_dim))
    x_next = np.empty((n_live, m, n_dim))

    def embedded_distances(y: np.ndarray) -> bool:
        """Fill ``sq``/``dist`` with squared and plain pairwise distances.

        The Gram identity carries an *absolute* rounding error of a few
        ulp of ``|y|^2``, which is a large *relative* error for
        near-coincident points -- and ``t / d`` amplifies exactly those
        entries.  Every off-diagonal distance below ``1e-2`` (radio-range
        units) is therefore recomputed with the exact difference formula;
        such pairs are rare, so the fix-up normally costs one comparison
        pass and no gather.  The diagonal (exactly zero in the scalar
        chain, ulp-level residue under the Gram identity -- possibly
        negative, hence NaN after the sqrt) is overwritten with zero
        directly.  Returns whether any off-diagonal pair is *degenerate*
        (distance <= 1e-12), so the caller can skip the B-matrix masking
        passes when no maskable entry can exist.
        """
        k = y.shape[0]
        np.einsum("bij,bij->bi", y, y, out=norms[:k])
        # y @ (2y)^T is bit-identical to 2 * (y @ y^T): scaling by a power
        # of two is exact and distributes exactly over float addition, and
        # it trades a full (k, m, m) pass for a (k, m, d) one.
        np.multiply(y, 2.0, out=y2[:k])
        np.matmul(y, np.swapaxes(y2[:k], -1, -2), out=gram[:k])
        np.add(norms[:k, :, None], norms[:k, None, :], out=sq[:k])
        np.subtract(sq[:k], gram[:k], out=sq[:k])
        np.less(sq[:k], 1e-4, out=close_mask[:k])
        close_mask[:k][:, diag, diag] = False
        has_degenerate = False
        with np.errstate(invalid="ignore"):
            np.sqrt(sq[:k], out=dist[:k])
        dist[:k][:, diag, diag] = 0.0
        sq[:k][:, diag, diag] = 0.0
        if close_mask[:k].any():
            cb, ci, cj = np.nonzero(close_mask[:k])
            delta = y[cb, ci] - y[cb, cj]
            exact = np.sqrt(np.einsum("ij,ij->i", delta, delta))
            dist[:k][cb, ci, cj] = exact
            sq[:k][cb, ci, cj] = exact * exact
            has_degenerate = bool((exact <= 1e-12).any())
        return has_degenerate

    def stress_of(k: int) -> np.ndarray:
        half = np.einsum("bij,bij->b", w, sq[:k])
        half += 2.0 * np.einsum("bij,bij->b", neg_wt, dist[:k])
        half += wtt
        return half / 2.0

    has_degenerate = embedded_distances(xa)
    last = stress_of(live.size)
    for _ in range(iterations):
        k = live.size
        if k == 0:
            break
        # dist[:k]/sq[:k] hold the distances of the current live embeddings.
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(neg_wt, dist[:k], out=bmat[:k])
        if has_degenerate:
            # Only run the masking passes when an off-diagonal entry with
            # dist <= 1e-12 actually exists (embedded_distances tracked
            # this); the division's NaN diagonal is overwritten below.
            np.less_equal(dist[:k], 1e-12, out=degenerate[:k])
            np.copyto(bmat[:k], 0.0, where=degenerate[:k])
        bmat[:k][:, diag, diag] = 0.0
        bmat[:k][:, diag, diag] = -bmat[:k].sum(axis=2)
        np.matmul(bmat[:k], xa, out=bx[:k])
        np.matmul(v_pinv, bx[:k], out=x_next[:k])
        steps[live] += 1
        has_degenerate = embedded_distances(x_next[:k])
        current = stress_of(k)
        x[live] = x_next[:k]
        done = (last - current) <= tol * np.maximum(last, 1e-12)
        if done.any():
            keep = ~done
            live = live[keep]
            xa = x_next[:k][keep]
            w = w[keep]
            neg_wt = neg_wt[keep]
            wtt = wtt[keep]
            v_pinv = v_pinv[keep]
            last = current[keep]
            kept_sq = sq[:k][keep]
            kept_dist = dist[:k][keep]
            sq[: live.size] = kept_sq
            dist[: live.size] = kept_dist
        else:
            xa = x_next[:k]
            last = current
    return x, steps


def local_mds_embedding(partial_distances: np.ndarray) -> Tuple[np.ndarray, int]:
    """Local coordinate system from partial pairwise distances.

    Composition of :func:`complete_distance_matrix`, :func:`classical_mds`,
    and :func:`smacof_refine` against the measured (finite) entries only;
    this is what step (I) of Algorithm 1 runs at every node.  With perfect
    measurements the refinement recovers the local geometry almost exactly
    even though shortest-path completion inflated the classical-MDS
    initialization.

    Returns the ``(m, 3)`` coordinates and the SMACOF step count -- the
    deterministic refinement observable the localization bench compares
    across engines.
    """
    partial = np.asarray(partial_distances, dtype=float)
    coords = classical_mds(complete_distance_matrix(partial))
    measured = np.isfinite(partial)
    weights = measured.astype(float)
    np.fill_diagonal(weights, 0.0)
    return smacof_refine(coords, np.where(measured, partial, 0.0), weights)
