"""Uniform grid index for the fixed-radius all-pairs sweep in 3D.

Building a unit-ball graph naively costs ``O(n^2)`` distance checks.  The
index instead bins points into a uniform grid with cell size equal to the
query radius, so each point is compared only with the points of the 27
surrounding cells.  For the roughly uniform deployments this library
simulates, construction and the all-pairs sweep are both ``O(n)`` expected.

The index is fully array-based: cell membership is computed for every point
at once, points are grouped by sorted linear cell id (one stable argsort +
run-length boundaries instead of a per-point Python dict), and its one query,
:meth:`UniformGridIndex.neighbor_pairs_array`, expands whole cell-pair blocks
with vectorized cross products.  :class:`~repro.network.graph.NetworkGraph`
and :func:`~repro.network.radio.build_adjacency` both build their edges from
that sweep, which is what lets the generator emit a 100k-node unit-ball
graph in seconds.

Pairs are returned in lexicographic ``(i, j)`` order, which is also exactly
what a brute-force ``O(n^2)`` scan produces -- the differential tests compare
byte-for-byte.  The radius is inclusive: two points exactly ``radius`` apart
are paired.
"""

from __future__ import annotations

from typing import Dict, List

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

    @property
    def points(self) -> np.ndarray:
        """The indexed points (read-only view)."""
        view = self._points.view()
        view.flags.writeable = False
        return view

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

    def neighbor_pairs_array(self, radius: float) -> np.ndarray:
        """All index pairs within ``radius`` as an ``(E, 2)`` int64 array.

        Rows satisfy ``i < j`` and are sorted lexicographically by
        ``(i, j)`` -- the order a brute-force double loop emits.  A point is
        never paired with itself; coincident points are paired.

        The sweep is cell-block batched: for each stencil offset, every
        occupied cell is matched against the occupied cell at that offset
        in one ``searchsorted``, and all matched cell pairs expand their
        point cross products with one vectorized block -- no per-point
        Python dispatch anywhere.
        """
        n = self._points.shape[0]
        if n == 0:
            return np.empty((0, 2), dtype=np.int64)
        reach = int(np.ceil(radius / self._cell_size))
        r_sq = radius * radius
        sizes = np.diff(self._cell_starts)
        starts = self._cell_starts[:-1]
        chunks_i: List[np.ndarray] = []
        chunks_j: List[np.ndarray] = []
        # One block per stencil offset keeps the transient cross-product
        # arrays at O(occupied cells * mean cell population^2) each.
        for off in _stencil(reach):
            g2 = self._lookup(self._keys_of(self._cell_coords + off))
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
            i_idx = self._order[starts[g1][block] + within // b[block]]
            j_idx = self._order[starts[g2][block] + within % b[block]]
            # Each unordered pair appears once with i < j across the offset
            # and its mirror (or within the same block for the 0 offset).
            keep = i_idx < j_idx
            i_idx, j_idx = i_idx[keep], j_idx[keep]
            diff = self._points[i_idx] - self._points[j_idx]
            close = np.einsum("ij,ij->i", diff, diff) <= r_sq
            chunks_i.append(i_idx[close])
            chunks_j.append(j_idx[close])
        if not chunks_i:
            return np.empty((0, 2), dtype=np.int64)
        i_all = np.concatenate(chunks_i)
        j_all = np.concatenate(chunks_j)
        order = np.lexsort((j_all, i_all))
        return np.column_stack([i_all[order], j_all[order]])
