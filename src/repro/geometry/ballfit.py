"""Unit-ball fitting: spheres of fixed radius through three points.

This module implements the geometric core of the paper's Unit Ball Fitting
(UBF) algorithm (Sec. II-A).  Given a node *i* and two of its neighbors *j*
and *k*, Eq. (1) of the paper asks for the centers ``(x, y, z)`` of balls of
radius ``r`` whose surface passes through all three nodes.  Depending on the
triangle ``i j k`` the system has zero, one, or two solutions:

* if the circumradius of the triangle exceeds ``r`` there is no such ball;
* if it equals ``r`` the unique center is the triangle's circumcenter;
* otherwise the two centers sit symmetrically on the line through the
  circumcenter perpendicular to the triangle's plane, at offset
  ``h = sqrt(r^2 - R_circ^2)``.

A candidate ball is *empty* when no other node of the one-hop neighborhood
lies strictly inside it; by Lemma 1 an empty candidate ball certifies that
the node can construct an empty unit ball touching itself, i.e. that it is a
boundary node.

Kernels
-------
The emptiness search has one production path and one oracle, selected by
the ``kernel`` argument of :func:`empty_ball_exists`:

``"naive"``
    The literal per-pair reading of Algorithm 1: a Python loop over neighbor
    pairs, the scalar Eq.-1 solver per pair, and a point-by-point probe loop
    per candidate ball.  Slow by design -- it is the differential-test
    oracle the batched kernel is checked against, and the baseline the
    ``repro-bench`` speedup criterion is measured from.

``"batched"`` (default)
    The network-batched kernel.  Its input is a point table plus a row
    index: point ``k`` of the batch is ``points[rows[k]]``, and each node
    names its neighbor (pair) rows and its probe rows -- its own position
    first -- as ranges of ``rows``.  A frame batch passes its table and
    index as they are, so ground-truth frames read the network's position
    table and no per-member coordinate is copied.  Whenever the native
    kernels load (:mod:`repro.geometry.native`) the whole batch is one
    call into the fused ``ubf_enumerate_scan`` C kernel: each node copies
    its rows into a small scratch, walks its neighbor pairs, solves Eq. 1
    and probes every candidate at once, stopping at its witness -- no
    candidate array is built.  Otherwise (no C compiler, or
    ``REPRO_NATIVE=0``) the numpy fallback gathers one slab of nodes at a
    time and flattens their candidates into one node-major, pair-major
    workset (one Eq.-1 evaluation over every neighbor pair of every node),
    then scans it in synchronized waves: each wave advances every
    still-active node by :data:`DEFAULT_CHUNK_SIZE` candidates with one
    broadcast for the whole slab.  Which one runs is a platform check, not
    an option.

Both kernels enumerate candidates in the same canonical order (node-major,
lexicographic neighbor pairs, the ``+offset`` center before the ``-offset``
center) and report identical observables: the same boundary verdict, the
same witness ball, and the same ``balls_tested`` / ``points_checked``
counters.  The counters are *semantic* work counts -- the number of
candidate balls and point probes the sequential algorithm performs, with
per-ball early exit at the first strictly-inside point -- so they are
hardware- and implementation-independent observables of Theorem 1's
``Theta(rho^2)`` candidate bound and ``Theta(rho^3)`` total probe bound.

All three paths -- the C kernel, the numpy fallback and the naive oracle
-- share one Eq.-1 and probe arithmetic, so even the witness centers are
bit-identical.  Squared norms in Eq. 1 sum as ``(x^2 + z^2) + y^2``
(:func:`_sq_norm`), probe distances left to right, and the filter
constants come from one :func:`_eq1_bounds` call.  The sums are spelled
out rather than left to ``einsum``/``np.dot``, whose reduction order
follows numpy's SIMD dispatch and so differs between hosts.

Working set
-----------
The native kernel holds nothing beyond its per-node outputs and one
scratch of a node's rows.  The numpy fallback sizes every temporary from
one byte budget, :data:`UBF_WORKING_SET_BYTES`: the node slab (its
gathered neighbor and probe rows, pair index arrays and candidate
centers), the Eq.-1 enumeration blocks, and the probe waves.  All steps
are row-wise, so slab and block sizes never change a result -- only how
much memory one call holds, which stays flat in the network size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.primitives import DEGENERACY_TOL, as_point, as_points

#: Relative slack used when testing whether a node is strictly inside a ball.
#: The three defining nodes sit numerically *on* the sphere; the slack keeps
#: them (and any other exactly-on-sphere node) from counting as inside.
INSIDE_TOL = 1e-7

#: Radius-relative floor below which two of the three points count as
#: coincident (degenerate triple).  Side lengths this far under the ball
#: radius are rounding noise, not geometry: resolving them would make the
#: verdict depend on cancellation (e.g. flip under translation).  Scaling
#: coordinates and radius together leaves the test invariant.
COINCIDENT_TOL = 1e-7

#: Kernel names accepted by :func:`empty_ball_exists`.
KERNELS = ("naive", "batched")

#: Candidate balls each still-active node advances per numpy wave.  Small
#: enough that a boundary node whose first empty ball sits among the early
#: pairs never probes its full candidate family, large enough that
#: interior nodes amortize the numpy dispatch overhead.  A work knob only
#: -- counters and verdicts are independent of it.
DEFAULT_CHUNK_SIZE = 64

#: Working-set budget of one numpy-fallback search, in bytes.  Sizes the
#: node slab (:func:`search_bytes`), the Eq.-1 enumeration blocks
#: (:data:`BLOCK_BYTES_PER_PAIR`) and the probe waves
#: (:data:`PROBE_ENTRY_BYTES`); see "Working set" in the module docstring.
UBF_WORKING_SET_BYTES = 32 << 20

#: Bytes a slab holds per neighbor pair for its whole life: the pair index
#: arrays (32 B) plus up to two candidates (center, pair, owner: 48 B
#: each), doubled while the per-block candidates are concatenated.
SLAB_BYTES_PER_PAIR = 224

#: Bytes a slab holds per probe row (the node itself and its collection):
#: the neighbor and probe rows the fallback gathers from the point table.
SLAB_BYTES_PER_PROBE = 96

#: Peak bytes of Eq.-1 temporaries per neighbor pair of an enumeration
#: block (a dozen ``(B, 3)`` and ``(B,)`` float intermediates).
BLOCK_BYTES_PER_PAIR = 512

#: Bytes per (ball, probe column) entry of a numpy probe wave: gather
#: index, gathered point, difference, distance and masks.
PROBE_ENTRY_BYTES = 96

#: Probe columns scanned per early-exit round of :func:`_batch_probe`.
#: Most candidate balls contain a neighborhood point within the first few
#: probes, so narrow rounds retire them without touching the rest of the
#: collection.  A work/overhead knob only -- results are independent.
PROBE_COL_WAVE = 16


def search_bytes(n_neighbors, n_probes):
    """Slab bytes the numpy fallback holds for one node (or an array of them).

    ``n_neighbors`` one-hop neighbors give ``n (n - 1) / 2`` Eq.-1 pairs;
    ``n_probes`` counts the node's probe rows (itself plus its collection).
    :func:`_numpy_search` sums this over nodes to cut slabs of at most
    :data:`UBF_WORKING_SET_BYTES`.
    """
    pairs = n_neighbors * (n_neighbors - 1) // 2
    return pairs * SLAB_BYTES_PER_PAIR + n_probes * SLAB_BYTES_PER_PROBE


class Eq1Bounds(NamedTuple):
    """The scalar constants of one radius's Eq.-1 filters and probes.

    Computed once per search by :func:`_eq1_bounds` and shared by every
    path (the native kernel receives them in this field order), so no path
    re-derives them with a different rounding.
    """

    coincident_sq: float  # sides at or under this are coincident points
    degeneracy_tol: float  # n2 <= tol * aa * bb marks a collinear triple
    r_sq: float  # radius * radius
    fit_floor: float  # h_sq at or under this: circumradius exceeds r
    tangent_sq: float  # h_sq at or under this: one (tangent) center
    threshold_sq: float  # squared strictly-inside probe radius


def _eq1_bounds(radius: float) -> Eq1Bounds:
    return Eq1Bounds(
        coincident_sq=(COINCIDENT_TOL * radius) ** 2,
        degeneracy_tol=DEGENERACY_TOL,
        r_sq=radius * radius,
        fit_floor=-INSIDE_TOL * radius * radius,
        tangent_sq=(INSIDE_TOL * radius) ** 2,
        threshold_sq=(radius * (1.0 - INSIDE_TOL)) ** 2,
    )


def _sq_norm(v: np.ndarray) -> np.ndarray:
    """Squared norm over the last axis, summed as ``(x^2 + z^2) + y^2``.

    The order every Eq.-1 path uses (see "Kernels" in the module
    docstring); it reproduces what ``einsum`` computes on AVX-512 hosts,
    where the committed outputs were produced.
    """
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return (x * x + z * z) + y * y


def balls_through_three_points(p1, p2, p3, radius: float) -> List[np.ndarray]:
    """Centers of all balls of ``radius`` whose surface contains three points.

    Parameters
    ----------
    p1, p2, p3:
        The three points (3-vectors).
    radius:
        Ball radius ``r``; the paper uses ``r = 1 + eps`` with the radio
        range normalized to 1.

    Returns
    -------
    list of numpy.ndarray
        Zero, one, or two center points.  Collinear (degenerate) triples
        yield an empty list: a line has infinite circumradius, so no ball of
        finite radius passes through it in a well-defined way, matching
        Definition 3's exclusion of degenerate line segments.  Two-solution
        cases list the ``+offset`` center (along ``cross(p2-p1, p3-p1)``)
        first -- the canonical enumeration order shared with
        :func:`balls_through_point_pairs`.
    """
    p1 = as_point(p1)
    a = as_point(p2) - p1
    b = as_point(p3) - p1
    n = np.cross(a, b)
    n2 = float(_sq_norm(n))
    aa = float(_sq_norm(a))
    bb = float(_sq_norm(b))
    bounds = _eq1_bounds(radius)
    # Relative degeneracy tests: sides below the radius-relative
    # coincidence floor, then |a x b|^2 = |a|^2 |b|^2 sin^2(theta), so
    # n2 <= tol * aa * bb means sin^2(theta) <= tol regardless of scale.
    # An absolute cutoff on n2 (which grows as scale^4) would flip
    # near-degenerate verdicts under uniform scaling of the network.
    if aa <= bounds.coincident_sq or bb <= bounds.coincident_sq:
        return []
    if n2 <= bounds.degeneracy_tol * aa * bb:
        return []
    center0 = p1 + (aa * np.cross(b, n) + bb * np.cross(n, a)) / (2.0 * n2)
    h_sq = bounds.r_sq - float(_sq_norm(center0 - p1))
    if not h_sq > bounds.fit_floor:
        return []
    if h_sq <= bounds.tangent_sq:
        return [center0]
    offset = np.sqrt(h_sq) * (n / np.sqrt(n2))
    return [center0 + offset, center0 - offset]


def balls_through_point_pairs(
    origin, others: Sequence, radius: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized candidate-ball centers for UBF at one node.

    Computes, for every unordered pair ``(j, k)`` of points in ``others``,
    the centers of the balls of radius ``radius`` through
    ``(origin, others[j], others[k])`` in one batched evaluation of Eq. (1)
    -- the one-node case of the batched kernel's enumeration, so its
    centers are bit-identical to what the kernel tests.

    Parameters
    ----------
    origin:
        The testing node's own position.
    others:
        Positions of its one-hop neighbors, shape ``(m, 3)``.
    radius:
        Ball radius.

    Returns
    -------
    (centers, pair_indices)
        ``centers`` is a ``(K, 3)`` array of all valid ball centers and
        ``pair_indices`` a ``(K, 2)`` integer array giving, for each center,
        the indices into ``others`` of the two neighbors that define it.
        Both are empty when fewer than two neighbors are supplied.

        Ordering is canonical and matches a per-pair loop over
        :func:`balls_through_three_points`: pairs enumerate
        lexicographically (``(0,1), (0,2), ..., (1,2), ...``) and
        two-solution pairs list the ``+offset`` center before the
        ``-offset`` center.  Tangent pairs (circumradius numerically equal
        to ``radius``) contribute their single circumcenter once.
    """
    origin = as_point(origin)
    pts = as_points(others) if len(others) else np.empty((0, 3))
    nbr_ptr = np.array([0, pts.shape[0]], dtype=np.int64)
    centers, pairs, _, _ = _batch_enumerate(origin[None, :], pts, nbr_ptr, radius)
    return centers, pairs


@dataclass
class BallFitResult:
    """Outcome of a full UBF emptiness search at one node.

    Attributes
    ----------
    is_boundary:
        True when at least one empty candidate ball exists.
    empty_center:
        Center of the first empty ball found, or None.
    witness_pair:
        Indices (into the neighbor array) of the two neighbors that define
        the empty ball, or None.
    balls_tested:
        Number of candidate balls examined before the search stopped; a
        direct observable for the Theta(rho^2) bound of Theorem 1.
    points_checked:
        Number of point probes performed across the tested balls, with
        per-ball early exit at the first strictly-inside point; the
        observable behind Theorem 1's Theta(rho) checks per ball /
        Theta(rho^3) total bound.  Identical for both kernels by contract.
    """

    is_boundary: bool
    empty_center: Optional[np.ndarray] = None
    witness_pair: Optional[Tuple[int, int]] = None
    balls_tested: int = 0
    points_checked: int = 0


class BallFitArrays(NamedTuple):
    """Per-node outcomes of one batched emptiness search, as arrays.

    Row ``u`` holds what :class:`BallFitResult` holds for node ``u``; the
    witness rows are NaN (center) and -1 (pair) where no empty ball was
    found.
    """

    is_boundary: np.ndarray  # (N,) bool
    balls_tested: np.ndarray  # (N,) int64
    points_checked: np.ndarray  # (N,) int64
    witness_center: np.ndarray  # (N, 3) float64
    witness_pair: np.ndarray  # (N, 2) int64

    def results(self) -> List[BallFitResult]:
        """One :class:`BallFitResult` per node (the list API's form)."""
        return [
            BallFitResult(
                is_boundary=bool(boundary),
                empty_center=center.copy() if pair[0] >= 0 else None,
                witness_pair=(int(pair[0]), int(pair[1])) if pair[0] >= 0 else None,
                balls_tested=int(tested),
                points_checked=int(checked),
            )
            for boundary, tested, checked, center, pair in zip(*self)
        ]


def _naive_search(
    origin: np.ndarray,
    pts: np.ndarray,
    check: np.ndarray,
    radius: float,
    find_first: bool,
) -> BallFitResult:
    """Per-pair Python oracle: scalar Eq.-1 solver, point-by-point probes."""
    threshold = _eq1_bounds(radius).threshold_sq
    probe_rows: List[Tuple[float, float, float]] = [
        (float(origin[0]), float(origin[1]), float(origin[2]))
    ]
    probe_rows.extend((float(p[0]), float(p[1]), float(p[2])) for p in check)

    tested = 0
    checked = 0
    witness: Optional[Tuple[np.ndarray, Tuple[int, int]]] = None
    m = pts.shape[0]
    for j in range(m - 1):
        for k in range(j + 1, m):
            for center in balls_through_three_points(origin, pts[j], pts[k], radius):
                tested += 1
                cx = float(center[0])
                cy = float(center[1])
                cz = float(center[2])
                inside = False
                for px, py, pz in probe_rows:
                    checked += 1
                    dx = cx - px
                    dy = cy - py
                    dz = cz - pz
                    if dx * dx + dy * dy + dz * dz < threshold:
                        inside = True
                        break
                if not inside and witness is None:
                    witness = (center.copy(), (j, k))
                    if find_first:
                        return BallFitResult(
                            is_boundary=True,
                            empty_center=witness[0],
                            witness_pair=witness[1],
                            balls_tested=tested,
                            points_checked=checked,
                        )
    if tested == 0:
        # No candidate ball fits through any neighbor pair: every triangle's
        # circumradius exceeds r.  Such a node sits against empty space.
        return BallFitResult(is_boundary=True, balls_tested=0, points_checked=0)
    if witness is None:
        return BallFitResult(
            is_boundary=False, balls_tested=tested, points_checked=checked
        )
    return BallFitResult(
        is_boundary=True,
        empty_center=witness[0],
        witness_pair=witness[1],
        balls_tested=tested,
        points_checked=checked,
    )


def empty_ball_exists(
    origin,
    neighbors,
    radius: float,
    *,
    check_points=None,
    find_first: bool = True,
    kernel: str = "batched",
) -> BallFitResult:
    """Search the candidate balls at ``origin`` for an empty one.

    This is steps (II) and (III) of Algorithm 1 in the paper: enumerate the
    balls through ``origin`` and every neighbor pair, then check each against
    the known surrounding points.  A ball is empty when no point (other than
    the three numerically on its surface) lies strictly inside.

    Parameters
    ----------
    origin:
        Position of the testing node.
    neighbors:
        ``(m, 3)`` positions of its one-hop neighbors -- the pair candidates
        through which balls are constructed.
    radius:
        Ball radius ``r = 1 + eps``.
    check_points:
        Positions the emptiness test runs against.  Defaults to
        ``neighbors``; the full pipeline passes the node's 2-hop collection
        here, since a candidate ball reaches up to ``2r`` from the node and
        Lemma 1/Theorem 1 reason about all nodes within that radius.
    find_first:
        When True (default), stop at the first empty ball, as a real node
        would (Algorithm 1 breaks on success).  When False, scan every
        candidate and report the total count tested, which benches use to
        measure Theorem 1's complexity.
    kernel:
        One of :data:`KERNELS`: ``"batched"`` (default), a one-node call
        into :func:`empty_ball_exists_batch`, or ``"naive"``, the per-pair
        Python oracle.  Both return identical results and counters (see
        the module docstring).

    Returns
    -------
    BallFitResult

    Notes
    -----
    Nodes with fewer than two neighbors cannot run the pair test at all.
    Definition 3 (well-connected networks) rules such nodes out; if one is
    encountered anyway we conservatively declare it a boundary node, since a
    node that sparsely connected is certainly adjacent to empty space.
    """
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    origin = as_point(origin)
    pts = as_points(neighbors) if len(neighbors) else np.empty((0, 3))
    if pts.shape[0] < 2:
        return BallFitResult(is_boundary=True, balls_tested=0, points_checked=0)
    if check_points is None:
        check = pts
    else:
        check = as_points(check_points) if len(check_points) else np.empty((0, 3))

    if kernel == "naive":
        return _naive_search(origin, pts, check, radius, find_first)
    return empty_ball_exists_batch(
        origin[None, :], [pts], radius, check_sets=[check], find_first=find_first
    )[0]


def _batch_enumerate(
    origins: np.ndarray,
    nbr_flat: np.ndarray,
    nbr_ptr: np.ndarray,
    radius: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eq.-1 candidate centers for a whole batch of nodes at once.

    Flattens every node's neighbor pairs into one node-major, pair-major
    workset and evaluates Eq. (1) on it in blocks of
    ``UBF_WORKING_SET_BYTES // BLOCK_BYTES_PER_PAIR`` pairs.  Every
    operation is row-wise (the origin is broadcast per row), so a node's
    centers do not depend on which other nodes share its slab or block --
    :func:`balls_through_point_pairs` is the one-node case.

    Returns ``(centers, pairs, cand_node, cand_ptr)``: candidate centers
    ``(K, 3)``, their local neighbor-pair indices ``(K, 2)``, the owning
    node's row for every candidate, and per-node candidate offsets
    ``(N + 1,)``.
    """
    n_nodes = origins.shape[0]
    m = np.diff(nbr_ptr)
    pair_counts = m * (m - 1) // 2
    pair_ptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=pair_ptr[1:])
    total_pairs = int(pair_ptr[-1])
    if total_pairs == 0:
        return (
            np.empty((0, 3)),
            np.empty((0, 2), dtype=int),
            np.empty(0, dtype=np.int64),
            np.zeros(n_nodes + 1, dtype=np.int64),
        )

    # Scatter each degree group's (cached) triu pattern into the global
    # node-major pair arrays -- no per-node Python dispatch.
    gj = np.empty(total_pairs, dtype=np.int64)
    gk = np.empty(total_pairs, dtype=np.int64)
    loc_j = np.empty(total_pairs, dtype=np.int32)
    loc_k = np.empty(total_pairs, dtype=np.int32)
    for mu in np.unique(m):
        if mu < 2:
            continue
        sel = np.flatnonzero(m == mu)
        tj, tk = np.triu_indices(int(mu), k=1)
        dest = pair_ptr[sel][:, None] + np.arange(tj.size)[None, :]
        gj[dest] = nbr_ptr[sel][:, None] + tj[None, :]
        gk[dest] = nbr_ptr[sel][:, None] + tk[None, :]
        loc_j[dest] = tj[None, :]
        loc_k[dest] = tk[None, :]
    pair_node = np.repeat(np.arange(n_nodes, dtype=np.int64), pair_counts)

    bounds = _eq1_bounds(radius)
    block = max(1, UBF_WORKING_SET_BYTES // BLOCK_BYTES_PER_PAIR)
    centers_blocks: List[np.ndarray] = []
    pairs_blocks: List[np.ndarray] = []
    node_blocks: List[np.ndarray] = []
    for s in range(0, total_pairs, block):
        e = min(s + block, total_pairs)
        origin_rows = origins[pair_node[s:e]]
        a = nbr_flat[gj[s:e]] - origin_rows
        b = nbr_flat[gk[s:e]] - origin_rows
        n = np.cross(a, b)
        n2 = _sq_norm(n)
        aa = _sq_norm(a)
        bb = _sq_norm(b)
        valid = (
            (aa > bounds.coincident_sq)
            & (bb > bounds.coincident_sq)
            & (n2 > bounds.degeneracy_tol * aa * bb)
        )
        if not np.any(valid):
            continue
        rows = np.flatnonzero(valid)
        a, b, n, n2 = a[rows], b[rows], n[rows], n2[rows]
        aa, bb = aa[rows][:, None], bb[rows][:, None]
        origin_rows = origin_rows[rows]
        center0 = origin_rows + (
            aa * np.cross(b, n) + bb * np.cross(n, a)
        ) / (2.0 * n2[:, None])
        h_sq = bounds.r_sq - _sq_norm(center0 - origin_rows)
        fits = h_sq > bounds.fit_floor
        if not np.any(fits):
            continue
        keep = rows[fits] + s  # global pair rows surviving both filters
        center0, n, n2, h_sq = center0[fits], n[fits], n2[fits], h_sq[fits]

        tangent = h_sq <= bounds.tangent_sq
        h = np.sqrt(np.clip(h_sq, 0.0, None))
        unit_n = n / np.sqrt(n2)[:, None]
        offset = h[:, None] * unit_n
        counts = np.where(tangent, 1, 2)
        starts = np.cumsum(counts) - counts
        total = int(counts.sum())
        centers = np.empty((total, 3))
        centers[starts] = np.where(tangent[:, None], center0, center0 + offset)
        centers[starts[~tangent] + 1] = (center0 - offset)[~tangent]
        pair_cols = np.column_stack([loc_j[keep], loc_k[keep]]).astype(int)
        centers_blocks.append(centers)
        pairs_blocks.append(np.repeat(pair_cols, counts, axis=0))
        node_blocks.append(np.repeat(pair_node[keep], counts))

    if not centers_blocks:
        return (
            np.empty((0, 3)),
            np.empty((0, 2), dtype=int),
            np.empty(0, dtype=np.int64),
            np.zeros(n_nodes + 1, dtype=np.int64),
        )
    centers = np.concatenate(centers_blocks)
    pairs = np.concatenate(pairs_blocks)
    cand_node = np.concatenate(node_blocks)
    cand_ptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(cand_node, minlength=n_nodes), out=cand_ptr[1:])
    return centers, pairs, cand_node, cand_ptr


def _batch_probe(
    centers_sel: np.ndarray,
    ball_node: np.ndarray,
    probe_flat: np.ndarray,
    probe_base: np.ndarray,
    probe_len: np.ndarray,
    threshold: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Semantic probe counts and emptiness for a wave of candidate balls.

    For each ball: the index of the first strictly-inside probe point plus
    one (the work the sequential scan performs), or the full probe count
    when the ball is empty.  Each round holds at most
    ``UBF_WORKING_SET_BYTES // PROBE_ENTRY_BYTES`` (ball, probe) entries.
    """
    count = centers_sel.shape[0]
    mpts = probe_len[ball_node]
    base = probe_base[ball_node]
    probes = np.empty(count, dtype=np.int64)
    empty = np.empty(count, dtype=bool)
    row_step = max(1, UBF_WORKING_SET_BYTES // (PROBE_ENTRY_BYTES * PROBE_COL_WAVE))
    for s in range(0, count, row_step):
        e = min(s + row_step, count)
        # Probe-level early exit: scan PROBE_COL_WAVE probe columns at a
        # time and retire every ball whose first inside point has been
        # found.  The mean witness probe sits at a handful of points
        # (Theorem 1's early exit), so most balls resolve in one round
        # instead of paying for their node's full collection.
        alive = np.arange(s, e, dtype=np.int64)
        posa = np.zeros(alive.size, dtype=np.int64)
        while alive.size:
            rem = mpts[alive] - posa
            w = min(PROBE_COL_WAVE, int(rem.max()))
            col = np.arange(w, dtype=np.int64)
            mask = col[None, :] < rem[:, None]
            idx = np.where(
                mask, base[alive, None] + posa[:, None] + col[None, :], 0
            )
            diff = centers_sel[alive, None, :] - probe_flat[idx]
            dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
            dist_sq = dx * dx + dy * dy + dz * dz  # left to right, as the C probe
            inside = (dist_sq < threshold) & mask
            any_inside = inside.any(axis=1)
            hit = alive[any_inside]
            probes[hit] = posa[any_inside] + inside.argmax(axis=1)[any_inside] + 1
            empty[hit] = False
            keep = ~any_inside
            alive = alive[keep]
            posa = posa[keep] + np.minimum(rem[keep], w)
            done = posa >= mpts[alive]
            fin = alive[done]
            probes[fin] = mpts[fin]
            empty[fin] = True
            alive = alive[~done]
            posa = posa[~done]
    return probes, empty


def _gather_ranges(
    points: np.ndarray, rows: np.ndarray, base: np.ndarray, length: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``points[rows[base[u] .. base[u] + length[u]]]`` for every ``u``,
    concatenated, and its ``(n + 1,)`` offsets."""
    ptr = np.zeros(length.size + 1, dtype=np.int64)
    np.cumsum(length, out=ptr[1:])
    index = np.arange(int(ptr[-1]), dtype=np.int64) + np.repeat(
        base - ptr[:-1], length
    )
    return points[rows[index]], ptr


def _numpy_search(
    points: np.ndarray,
    rows: np.ndarray,
    pair_base: np.ndarray,
    pair_len: np.ndarray,
    probe_base: np.ndarray,
    probe_len: np.ndarray,
    radius: float,
    find_first: bool,
) -> BallFitArrays:
    """The compiler-less twin of ``ubf_enumerate_scan``, same arguments.

    Nodes are searched in consecutive slabs of at most
    :data:`UBF_WORKING_SET_BYTES` (:func:`search_bytes`; a single node
    over the budget forms its own slab).  Each slab gathers its origins,
    neighbor rows and probe rows out of ``points[rows]`` and is scanned by
    :func:`_scan_slab`; slabs never change a result, only the memory one
    call holds.
    """
    spent = np.cumsum(search_bytes(pair_len, probe_len))
    n_nodes = pair_base.shape[0]
    slabs: List[BallFitArrays] = []
    start = 0
    while start < n_nodes or not slabs:  # no nodes: one empty, typed slab
        before = int(spent[start - 1]) if start else 0
        end = int(
            np.searchsorted(spent, before + UBF_WORKING_SET_BYTES, side="right")
        )
        end = min(max(end, start + 1), n_nodes)
        nbr_flat, nbr_ptr = _gather_ranges(
            points, rows, pair_base[start:end], pair_len[start:end]
        )
        probe_flat, probe_ptr = _gather_ranges(
            points, rows, probe_base[start:end], probe_len[start:end]
        )
        # The origin is each node's first probe row; nodes without a pair
        # never read it (and may have no probe rows at all).
        origins = np.zeros((end - start, 3))
        scanned = pair_len[start:end] >= 2
        origins[scanned] = probe_flat[probe_ptr[:-1][scanned]]
        slabs.append(
            _scan_slab(
                origins, nbr_flat, nbr_ptr, probe_flat, probe_ptr, radius,
                find_first,
            )
        )
        start = end
    return BallFitArrays(*(np.concatenate(column) for column in zip(*slabs)))


def _scan_slab(
    origins: np.ndarray,
    nbr_flat: np.ndarray,
    nbr_ptr: np.ndarray,
    probe_flat: np.ndarray,
    probe_ptr: np.ndarray,
    radius: float,
    find_first: bool,
) -> BallFitArrays:
    """The numpy emptiness search over one slab of gathered rows.

    Candidates are enumerated once for the whole slab
    (:func:`_batch_enumerate`), then scanned in numpy waves: every wave
    advances each still-active node by :data:`DEFAULT_CHUNK_SIZE`
    candidates with one broadcast for the whole slab, so a boundary node
    stops contributing work at the wave after its witness.
    """
    n_nodes = origins.shape[0]
    probe_base = probe_ptr[:-1]
    probe_len = np.diff(probe_ptr)
    centers, pairs, _, cand_ptr = _batch_enumerate(
        origins, nbr_flat, nbr_ptr, radius
    )
    threshold = _eq1_bounds(radius).threshold_sq
    cand_counts = np.diff(cand_ptr)

    tested = np.zeros(n_nodes, dtype=np.int64)
    checked = np.zeros(n_nodes, dtype=np.int64)
    witness = np.full(n_nodes, -1, dtype=np.int64)

    if centers.shape[0]:
        pos = cand_ptr[:-1].copy()
        active = cand_counts > 0
        while True:
            cur = np.flatnonzero(active & (pos < cand_ptr[1:]))
            if cur.size == 0:
                break
            take = np.minimum(cand_ptr[1:][cur] - pos[cur], DEFAULT_CHUNK_SIZE)
            total = int(take.sum())
            seg_base = np.cumsum(take) - take
            ball_idx = (
                np.arange(total, dtype=np.int64)
                - np.repeat(seg_base, take)
                + np.repeat(pos[cur], take)
            )
            ball_node = np.repeat(cur, take)
            probes, empty = _batch_probe(
                centers[ball_idx], ball_node, probe_flat, probe_base,
                probe_len, threshold,
            )
            cum = np.cumsum(probes)
            seg_end = seg_base + take
            seg_sum = cum[seg_end - 1] - np.where(
                seg_base > 0, cum[seg_base - 1], 0
            )
            if empty.any():
                empty_rows = np.flatnonzero(empty)
                # ball_node is non-decreasing, so np.unique's first
                # occurrence is each node's earliest empty ball this wave.
                first_nodes, first_at = np.unique(
                    ball_node[empty_rows], return_index=True
                )
                first_rows = empty_rows[first_at]
            else:
                first_nodes = np.empty(0, dtype=np.int64)
                first_rows = np.empty(0, dtype=np.int64)
            if find_first and first_nodes.size:
                rank = np.searchsorted(cur, first_nodes)
                local = first_rows - seg_base[rank]
                prefix = cum[first_rows] - np.where(
                    seg_base[rank] > 0, cum[seg_base[rank] - 1], 0
                )
                tested[first_nodes] += local + 1
                checked[first_nodes] += prefix
                witness[first_nodes] = ball_idx[first_rows]
                active[first_nodes] = False
                rest = np.ones(cur.size, dtype=bool)
                rest[rank] = False
                tested[cur[rest]] += take[rest]
                checked[cur[rest]] += seg_sum[rest]
            else:
                tested[cur] += take
                checked[cur] += seg_sum
                if first_nodes.size:
                    fresh = witness[first_nodes] < 0
                    witness[first_nodes[fresh]] = ball_idx[first_rows[fresh]]
            pos[cur] += take

    # Nodes without a candidate ball (or fewer than two neighbors) sit
    # against empty space: conservative boundary, zero counters.
    found = witness >= 0
    witness_center = np.full((n_nodes, 3), np.nan)
    witness_center[found] = centers[witness[found]]
    witness_pair = np.full((n_nodes, 2), -1, dtype=np.int64)
    witness_pair[found] = pairs[witness[found]]
    return BallFitArrays(
        is_boundary=(cand_counts == 0) | found,
        balls_tested=tested,
        points_checked=checked,
        witness_center=witness_center,
        witness_pair=witness_pair,
    )


def _native_ubf_kernels():
    """The native kernel table, or None when unavailable (numpy fallback)."""
    from repro.geometry.native import load_kernels

    return load_kernels()


def empty_ball_exists_batch_arrays(
    points,
    rows,
    pair_base,
    pair_len,
    probe_base,
    probe_len,
    radius: float,
    *,
    find_first: bool = True,
) -> BallFitArrays:
    """Batch emptiness search over a point table and a row index.

    The array-native entry point behind :func:`empty_ball_exists_batch`.
    Point ``k`` of the batch is ``points[rows[k]]``: node ``u``'s one-hop
    neighbors (the pair candidates) are rows ``pair_base[u] .. +
    pair_len[u]`` and its emptiness probes rows ``probe_base[u] .. +
    probe_len[u]``, with **the node's own position as the first probe
    row** -- its origin, and the probe order the sequential scan uses.
    A frame batch passes its table and index as they are (true frames
    index the network's positions, so nothing is copied per member).
    Whenever the native kernels load, the whole batch is one
    ``ubf_enumerate_scan`` call; otherwise :func:`_numpy_search` scans it
    in slabs of at most :data:`UBF_WORKING_SET_BYTES`.  The per-node
    outcomes come back as one :class:`BallFitArrays` -- no per-node
    objects.
    """
    points = as_points(points) if len(points) else np.empty((0, 3))
    rows, pair_base, pair_len, probe_base, probe_len = (
        np.asarray(a, dtype=np.int64).reshape(-1)
        for a in (rows, pair_base, pair_len, probe_base, probe_len)
    )
    native = _native_ubf_kernels()
    if native is None:
        return _numpy_search(
            points, rows, pair_base, pair_len, probe_base, probe_len,
            radius, find_first,
        )
    tested, checked, witness_center, witness_pair = native.ubf_enumerate_scan(
        points, rows, pair_base, pair_len, probe_base, probe_len,
        _eq1_bounds(radius), find_first,
    )
    # Nodes without a candidate ball (or fewer than two neighbors) sit
    # against empty space: conservative boundary, zero counters.
    return BallFitArrays(
        is_boundary=(tested == 0) | (witness_pair[:, 0] >= 0),
        balls_tested=tested,
        points_checked=checked,
        witness_center=witness_center,
        witness_pair=witness_pair,
    )


def empty_ball_exists_batch(
    origins,
    neighbor_sets: Sequence,
    radius: float,
    *,
    check_sets: Optional[Sequence] = None,
    find_first: bool = True,
) -> List[BallFitResult]:
    """Run the UBF emptiness search for a whole batch of nodes at once.

    The batch twin of :func:`empty_ball_exists`: ``origins`` is ``(N, 3)``,
    ``neighbor_sets[i]`` the ``(m_i, 3)`` one-hop neighbors of node ``i``
    and ``check_sets[i]`` its emptiness-check set (defaults to the
    neighbors, as in the single-node API).  Results are identical, node by
    node, to calling :func:`empty_ball_exists` per node with either kernel
    -- the flattening changes only how the work is dispatched.
    """
    origins = as_points(origins)
    n_nodes = origins.shape[0]
    if len(neighbor_sets) != n_nodes:
        raise ValueError("neighbor_sets length must match origins")
    if check_sets is not None and len(check_sets) != n_nodes:
        raise ValueError("check_sets length must match origins")
    nbrs = [
        as_points(nb) if len(nb) else np.empty((0, 3)) for nb in neighbor_sets
    ]
    checks = (
        nbrs
        if check_sets is None
        else [as_points(c) if len(c) else np.empty((0, 3)) for c in check_sets]
    )
    # Node i's rows: its origin and check set (the probes), then its
    # neighbors (the pair rows).  Nodes with fewer than two neighbors never
    # enumerate (conservative boundary, zero counters), matching the
    # single-node guard.
    pieces: List[np.ndarray] = [np.empty((0, 3))]
    for i in range(n_nodes):
        pieces += [origins[i][None, :], checks[i], nbrs[i]]
    points = np.concatenate(pieces)
    probe_len = np.array([1 + c.shape[0] for c in checks], dtype=np.int64)
    nbr_len = np.array([nb.shape[0] for nb in nbrs], dtype=np.int64)
    sizes = probe_len + nbr_len
    probe_base = np.cumsum(sizes) - sizes
    return empty_ball_exists_batch_arrays(
        points,
        np.arange(points.shape[0], dtype=np.int64),
        probe_base + probe_len,
        np.where(nbr_len >= 2, nbr_len, 0),
        probe_base,
        probe_len,
        radius,
        find_first=find_first,
    ).results()
