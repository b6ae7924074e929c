"""Uniform grid index for the fixed-radius all-pairs sweep in 3D.

Building a unit-ball graph naively costs ``O(n^2)`` distance checks.  The
index instead bins points into a uniform grid with cell size equal to the
query radius, so each point is compared only with the points of the 27
surrounding cells.  For the roughly uniform deployments this library
simulates, construction and the all-pairs sweep are both ``O(n)`` expected.

The index is fully array-based: cell membership is computed for every point
at once, and points are grouped by sorted linear cell id (one stable
argsort + run-length boundaries instead of a per-point Python dict).  Two
queries read that layout:

* :meth:`UniformGridIndex.cell_blocks` -- the points in cell order plus,
  for every occupied cell, the occupied cells of its stencil, looked up
  once per cell.  The native ``unit_ball_csr`` kernel
  (:meth:`repro.geometry.native.NativeKernels.unit_ball_csr`) builds
  :class:`~repro.network.graph.NetworkGraph`'s CSR adjacency from it.
* :meth:`UniformGridIndex.neighbor_pairs_array` -- every pair within the
  radius, expanded from the same blocks with vectorized cross products.
  It is the kernel's numpy twin (the graph's fallback when no C compiler
  is available).

Pairs are returned in lexicographic ``(i, j)`` order, which is also exactly
what a brute-force ``O(n^2)`` scan produces -- the differential tests compare
byte-for-byte.  The radius is inclusive: two points exactly ``radius`` apart
are paired.  The squared distance sums its terms as ``(dx^2 + dz^2) +
dy^2`` (``dx = p_i - p_j`` for ``i < j``), the order numpy's
``einsum("ij,ij->i")`` uses on AVX-512 hosts, spelled out so the result does
not depend on numpy's SIMD dispatch and the native kernel can repeat it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.geometry.primitives import as_points

#: Cached ``(2*reach+1)^3 x 3`` offset stencils, keyed by reach.
_STENCILS: Dict[int, np.ndarray] = {}


def _stencil(reach: int) -> np.ndarray:
    """All integer cell offsets with Chebyshev norm <= ``reach`` (lex order)."""
    cached = _STENCILS.get(reach)
    if cached is None:
        r = np.arange(-reach, reach + 1, dtype=np.int64)
        cached = (
            np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
        )
        _STENCILS[reach] = cached
    return cached


def auto_cell_size(radius: float) -> float:
    """The cell size the index performs best at for ``radius`` queries.

    Radius-sized cells make every fixed-radius query a 27-cell stencil scan
    with expected O(1) points per cell under uniform density: smaller cells
    multiply the stencil volume, larger cells multiply the candidates per
    cell.  The generator and graph construction use this helper so the grid
    is always matched to the radio range they query with.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    return float(radius)


class UniformGridIndex:
    """Spatial hash grid over a fixed set of 3D points.

    Parameters
    ----------
    points:
        ``(n, 3)`` array of point positions.  The index keeps a copy.
    cell_size:
        Edge length of the cubic grid cells (see :func:`auto_cell_size`).
        Queries with radius larger than ``cell_size`` fall back to scanning
        proportionally more cells and stay correct, just slower.
    """

    def __init__(self, points, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self._points = as_points(points).copy()
        self._cell_size = float(cell_size)
        n = self._points.shape[0]
        if n == 0:
            self._cell_min = np.zeros(3, dtype=np.int64)
            self._cell_span = np.ones(3, dtype=np.int64)
            self._order = np.empty(0, dtype=np.int64)
            self._cell_keys = np.empty(0, dtype=np.int64)
            self._cell_starts = np.zeros(1, dtype=np.int64)
            self._cell_coords = np.empty((0, 3), dtype=np.int64)
            return
        cells = np.floor(self._points / self._cell_size).astype(np.int64)
        self._cell_min = cells.min(axis=0)
        self._cell_span = cells.max(axis=0) - self._cell_min + 1
        if int(self._cell_span[0]) * int(self._cell_span[1]) * int(
            self._cell_span[2]
        ) >= 2**62:
            raise ValueError(
                "grid extent too large for linear cell keys; "
                "increase cell_size or rescale the points"
            )
        keys = self._keys_of(cells)
        # Stable sort: points within one cell stay in ascending index order.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        is_first = np.empty(n, dtype=bool)
        is_first[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_first[1:])
        firsts = np.flatnonzero(is_first)
        self._order = order.astype(np.int64, copy=False)
        self._cell_keys = sorted_keys[firsts]
        self._cell_starts = np.concatenate(
            [firsts, np.array([n], dtype=np.int64)]
        ).astype(np.int64, copy=False)
        self._cell_coords = cells[order[firsts]]

    def __len__(self) -> int:
        return self._points.shape[0]

    def _keys_of(self, cells: np.ndarray) -> np.ndarray:
        """Linear cell key per row of ``cells``; -1 outside the occupied box.

        Keys are raveled offsets inside the bounding box of occupied cells,
        so any cell outside that box -- which cannot be occupied -- maps to
        the sentinel instead of a colliding key.
        """
        rel = cells - self._cell_min
        inside = np.logical_and(rel >= 0, rel < self._cell_span).all(axis=1)
        keys = (
            rel[:, 0] * self._cell_span[1] + rel[:, 1]
        ) * self._cell_span[2] + rel[:, 2]
        return np.where(inside, keys, np.int64(-1))

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Occupied-cell group index per key (-1 when the cell is empty)."""
        if self._cell_keys.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self._cell_keys, keys)
        pos = np.minimum(pos, self._cell_keys.size - 1)
        hit = (keys >= 0) & (self._cell_keys[pos] == keys)
        return np.where(hit, pos, np.int64(-1))

    def cell_blocks(self, radius: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The points grouped by cell, and each cell's ``radius`` stencil.

        Returns ``(order, starts, stencil_cells)`` (all int64): the points
        of occupied cell ``c`` are ``order[starts[c]:starts[c+1]]``,
        ascending, and ``stencil_cells[c]`` lists the occupied cell at each
        offset of the Chebyshev-``reach`` stencil around ``c`` (lex offset
        order, ``-1`` where that cell is empty), with ``reach =
        ceil(radius / cell_size)`` -- every cell that can hold a point
        within ``radius`` of one in ``c``.  The stencil is looked up once
        per occupied cell (one ``searchsorted`` per offset), never per
        point.
        """
        reach = int(np.ceil(radius / self._cell_size))
        stencil = _stencil(reach)
        table = np.empty((self._cell_keys.size, len(stencil)), dtype=np.int64)
        for s, off in enumerate(stencil):
            table[:, s] = self._lookup(self._keys_of(self._cell_coords + off))
        return self._order, self._cell_starts, table

    def neighbor_pairs_array(self, radius: float) -> np.ndarray:
        """All index pairs within ``radius`` as an ``(E, 2)`` int64 array.

        Rows satisfy ``i < j`` and are sorted lexicographically by
        ``(i, j)`` -- the order a brute-force double loop emits.  A point is
        never paired with itself; coincident points are paired.

        The sweep is cell-block batched: for each stencil offset, every
        occupied cell is matched against its :meth:`cell_blocks` neighbour
        at that offset, and all matched cell pairs expand their point cross
        products with one vectorized block -- no per-point Python dispatch
        anywhere.
        """
        if self._points.shape[0] == 0:
            return np.empty((0, 2), dtype=np.int64)
        order, cell_starts, table = self.cell_blocks(radius)
        r_sq = radius * radius
        sizes = np.diff(cell_starts)
        starts = cell_starts[:-1]
        chunks_i: List[np.ndarray] = []
        chunks_j: List[np.ndarray] = []
        # One block per stencil offset keeps the transient cross-product
        # arrays at O(occupied cells * mean cell population^2) each.
        for g2 in table.T:
            g1 = np.flatnonzero(g2 >= 0)
            if g1.size == 0:
                continue
            g2 = g2[g1]
            a, b = sizes[g1], sizes[g2]
            counts = a * b
            total = int(counts.sum())
            base = np.cumsum(counts) - counts
            block = np.repeat(np.arange(g1.size), counts)
            within = np.arange(total, dtype=np.int64) - base[block]
            i_idx = order[starts[g1][block] + within // b[block]]
            j_idx = order[starts[g2][block] + within % b[block]]
            # Each unordered pair appears once with i < j across the offset
            # and its mirror (or within the same block for the 0 offset).
            keep = i_idx < j_idx
            i_idx, j_idx = i_idx[keep], j_idx[keep]
            sq = self._points[i_idx] - self._points[j_idx]
            sq *= sq
            close = (sq[:, 0] + sq[:, 2]) + sq[:, 1] <= r_sq
            chunks_i.append(i_idx[close])
            chunks_j.append(j_idx[close])
        if not chunks_i:
            return np.empty((0, 2), dtype=np.int64)
        i_all = np.concatenate(chunks_i)
        j_all = np.concatenate(chunks_j)
        lex = np.lexsort((j_all, i_all))
        return np.column_stack([i_all[lex], j_all[lex]])
