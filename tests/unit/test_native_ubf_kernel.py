"""The fused native UBF kernel against its numpy twin, directly.

Contract (see ``src/repro/geometry/ckernels.c``): ``ubf_enumerate_scan``
enumerates Eq.-1 candidates and probes them in one loop, with the
arithmetic of :func:`repro.geometry.ballfit._batch_enumerate` and
:func:`~repro.geometry.ballfit._batch_probe` operation for operation, so
every output of :func:`empty_ball_exists_batch_arrays` -- verdicts,
counters, witness pairs and the witness-center bytes, NaN rows included
-- is the same on the C path and the numpy fallback.  Both are pinned
byte for byte by a SHA-256 digest over seeded neighborhoods, and both
read their points through a row index into a point table, which the
shuffled-table case shows changes no byte.

The neighborhoods cover the degree ends (0, 1, 2, 3) and two realistic
degrees (17, 40), plus the degenerate Eq.-1 cases: coincident points,
exactly collinear triples, an exactly tangent triangle, and triangles
whose ``h_sq`` sits just inside and just outside the ``-INSIDE_TOL r^2``
fit floor.  The native-only cases skip when the kernels do not load (no
C compiler, or ``REPRO_NATIVE=0``); the digest and oracle cases run on
whichever path loads.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.geometry import ballfit
from repro.geometry.ballfit import (
    INSIDE_TOL,
    empty_ball_exists,
    empty_ball_exists_batch_arrays,
)
from repro.geometry.native import load_kernels

#: Neighbor counts of the seeded neighborhoods.
DEGREES = (0, 1, 2, 3, 17, 40)

EPS_VALUES = (1e-3, 0.2)

#: SHA-256 of every :class:`~repro.geometry.ballfit.BallFitArrays` field
#: over :func:`_digest_runs`, computed with the separate enumerate-then-
#: scan kernel this one replaced (numpy Eq.-1 blocks, then the C scan).
PINNED_UBF_SHA256 = (
    "1f5dc75db0fdec6ed8dd86e01f6cf0e2b915fe68c596c7c676a319e41b20914b"
)


def _degenerate_neighborhoods(radius):
    """(origin, neighbors, extra probes) for the degenerate Eq.-1 cases."""
    origin = np.zeros(3)
    off = np.array([[0.2, 0.5, 0.1]])
    cases = []
    # Coincident points: a neighbor on the origin, one within the
    # coincidence floor of it, and two neighbors on top of each other.
    cases.append((origin, np.array(
        [[0.0, 0.0, 0.0], [1e-9 * radius, 0.0, 0.0], [0.5, 0.2, 0.0],
         [0.5, 0.2, 0.0], [0.1, 0.6, 0.3]]
    ), off))
    # Exactly collinear: every triple lies on one line.
    cases.append((origin, np.array(
        [[0.3, 0.0, 0.0], [0.6, 0.0, 0.0], [0.9, 0.0, 0.0]]
    ), off))
    # Exactly tangent: a right triangle on the diameter of a circle of
    # radius r, so its circumradius is r.
    cases.append((origin, np.array(
        [[2.0 * radius, 0.0, 0.0], [radius, radius, 0.0]]
    ), off))
    # Circumradius R with r^2 - R^2 = -f * INSIDE_TOL * r^2: just inside
    # the fit floor (one center) and just outside it (no ball).
    for f in (0.5, 1.5):
        big = radius * np.sqrt(1.0 + f * INSIDE_TOL)
        cases.append((origin, np.array(
            [[2.0 * big, 0.0, 0.0], [big, big, 0.0]]
        ), off))
    return cases


def _neighborhoods(radius, seed=2024):
    """Seeded (origin, neighbors, extra probes) triples, degenerate last."""
    rng = np.random.default_rng(seed)
    cases = []
    for m in DEGREES:
        for _ in range(3):
            origin = rng.uniform(-2.0, 2.0, 3)
            neighbors = origin + rng.uniform(-radius, radius, (m, 3))
            extra = origin + rng.uniform(-1.5, 1.5, (int(rng.integers(0, 9)), 3))
            cases.append((origin, neighbors, extra))
    return cases + _degenerate_neighborhoods(radius)


def _flatten(cases):
    """Row-index arrays for :func:`empty_ball_exists_batch_arrays`: each
    node's rows are its own position, its neighbors, then its extras; its
    probes are all of them and its pairs the neighbors."""
    points = np.concatenate(
        [np.vstack([c[0][None, :], c[1], c[2]]) for c in cases]
    )
    sizes = np.array([1 + c[1].shape[0] + c[2].shape[0] for c in cases])
    probe_base = np.cumsum(sizes) - sizes
    pair_len = np.array([c[1].shape[0] for c in cases], dtype=np.int64)
    rows = np.arange(points.shape[0], dtype=np.int64)
    return points, rows, probe_base + 1, pair_len, probe_base, sizes


def _search(eps, find_first):
    radius = 1.0 + eps
    return empty_ball_exists_batch_arrays(
        *_flatten(_neighborhoods(radius)), radius, find_first=find_first
    )


def _digest_runs():
    """SHA-256 over every output field of every (eps, find_first) run."""
    digest = hashlib.sha256()
    for eps in EPS_VALUES:
        for find_first in (True, False):
            for field in _search(eps, find_first):
                digest.update(np.ascontiguousarray(field).tobytes())
    return digest.hexdigest()


def _force_numpy(monkeypatch):
    monkeypatch.setattr(ballfit, "_native_ubf_kernels", lambda: None)


native_only = pytest.mark.skipif(
    load_kernels() is None, reason="no C compiler / native kernels disabled"
)


def test_outputs_match_pinned_digest():
    """Whichever path loads reproduces the pinned bytes."""
    assert _digest_runs() == PINNED_UBF_SHA256


def test_numpy_fallback_matches_pinned_digest(monkeypatch):
    _force_numpy(monkeypatch)
    assert _digest_runs() == PINNED_UBF_SHA256


@native_only
@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("find_first", [True, False])
def test_native_matches_numpy_fallback_bytewise(eps, find_first, monkeypatch):
    native = _search(eps, find_first)
    _force_numpy(monkeypatch)
    fallback = _search(eps, find_first)
    for name, a, b in zip(native._fields, native, fallback):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize(
    "path", [pytest.param("native", marks=native_only), "fallback"]
)
@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("find_first", [True, False])
def test_row_index_into_a_shuffled_shared_table(eps, find_first, path, monkeypatch):
    """Reading through a shuffled table, with the pair rows in a region
    of their own, gives the ``arange`` layout's outputs byte for byte."""
    radius = 1.0 + eps
    expected = _search(eps, find_first)
    points, rows, pair_base, pair_len, probe_base, probe_len = _flatten(
        _neighborhoods(radius)
    )
    perm = np.random.default_rng(5).permutation(points.shape[0])
    table = np.empty_like(points)
    table[perm] = points
    pair_rows = np.concatenate(
        [rows[b : b + n] for b, n in zip(pair_base, pair_len)]
    )
    shuffled = np.concatenate([perm[rows], perm[pair_rows]])
    pair_ptr = np.cumsum(pair_len) - pair_len
    if path == "fallback":
        _force_numpy(monkeypatch)
    got = empty_ball_exists_batch_arrays(
        table, shuffled, rows.size + pair_ptr, pair_len, probe_base, probe_len,
        radius, find_first=find_first,
    )
    for name, a, b in zip(got._fields, got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@native_only
def test_kernel_writes_only_witness_rows():
    """Direct call: nodes without a witness keep the caller's NaN / -1."""
    radius = 1.2
    arrays = _flatten(_neighborhoods(radius))
    pair_len, probe_len = arrays[3], arrays[5]
    tested, checked, center, pair = load_kernels().ubf_enumerate_scan(
        *arrays, ballfit._eq1_bounds(radius), True,
    )
    found = pair[:, 0] >= 0
    assert found.any() and not found.all()
    assert np.isnan(center[~found]).all() and (pair[~found] == -1).all()
    assert np.isfinite(center[found]).all()
    assert (pair[found, 0] < pair[found, 1]).all()
    assert (tested[pair_len < 2] == 0).all()
    assert (checked <= tested * probe_len).all()


@native_only
def test_kernel_rejects_inconsistent_shapes():
    points, rows, pair_base, pair_len, probe_base, probe_len = _flatten(
        _neighborhoods(1.2)
    )
    kernels = load_kernels()
    bounds = ballfit._eq1_bounds(1.2)
    bad_rows = rows.copy()
    bad_rows[-1] = points.shape[0]
    origin_less = probe_len.copy()
    origin_less[pair_len >= 2] = 0
    for args in (
        (points[:-1], rows, pair_base, pair_len, probe_base, probe_len),
        (points, bad_rows, pair_base, pair_len, probe_base, probe_len),
        (points, rows[:-1], pair_base, pair_len, probe_base, probe_len),
        (points, rows, pair_base[:-1], pair_len, probe_base, probe_len),
        (points, rows, pair_base, pair_len, probe_base, origin_less),
    ):
        with pytest.raises(ValueError):
            kernels.ubf_enumerate_scan(*args, bounds, True)


#: Candidate balls of each degenerate case in a full scan: the coincident
#: and duplicated points leave 2 of 10 pairs, 2 centers each; the
#: collinear and just-outside triangles give none, the tangent and
#: just-inside ones a single center each.
DEGENERATE_BALLS = (4, 0, 1, 1, 0)


@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("find_first", [True, False])
def test_degenerate_cases_match_naive_oracle(eps, find_first):
    radius = 1.0 + eps
    for (origin, neighbors, extra), balls in zip(
        _degenerate_neighborhoods(radius), DEGENERATE_BALLS
    ):
        check = np.vstack([neighbors, extra])
        got, naive = (
            empty_ball_exists(
                origin, neighbors, radius, check_points=check,
                find_first=find_first, kernel=kernel,
            )
            for kernel in ("batched", "naive")
        )
        assert got.is_boundary == naive.is_boundary
        assert got.balls_tested == naive.balls_tested
        assert got.points_checked == naive.points_checked
        assert got.witness_pair == naive.witness_pair
        if naive.empty_center is None:
            assert got.empty_center is None
        else:
            assert got.empty_center.tobytes() == naive.empty_center.tobytes()
        if not find_first:
            assert got.balls_tested == balls
