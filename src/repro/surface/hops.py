"""Hop distances and shortest paths inside one boundary group, as rows.

Steps I-V of the surface construction (Sec. III) all reason over hop
distances from landmarks within one boundary group: landmark election and
Voronoi cells (I), CDM and completion paths (III, IV), candidate pairs
(IV), and edge lengths for flips and hole patches (V).  :class:`GroupHops`
cuts the group's induced subgraph out of the network's CSR adjacency and
computes one hop row per source -- the source's distance to every group
member, from one unbounded BFS over that subgraph (the native
:meth:`~repro.geometry.native.NativeKernels.bfs_depths`, or a numpy
level-synchronous BFS without native kernels) -- at most once per source.
One landmark's row is shared by every step, every landmark spacing tried,
and every finalize round of :class:`repro.surface.pipeline.SurfaceBuilder`.

The scalar BFS queries of :class:`repro.network.graph.NetworkGraph` stay
the reference these rows and paths are tested against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.geometry.native import load_kernels
from repro.network.graph import NetworkGraph


def _csr_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The neighbours of ``rows``, concatenated, and each row's count."""
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    offsets = np.cumsum(sizes) - sizes
    flat = np.repeat(starts - offsets, sizes) + np.arange(int(sizes.sum()))
    return indices[flat], sizes


def _bfs_depths(
    indptr: np.ndarray, indices: np.ndarray, source: int, unreached: int
) -> np.ndarray:
    """Numpy twin of :meth:`NativeKernels.bfs_depths`: one BFS level per
    step, the frontier's unvisited neighbours forming the next level."""
    depth = np.full(indptr.size - 1, unreached, dtype=np.int64)
    depth[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        reached, _ = _csr_rows(indptr, indices, frontier)
        frontier = np.unique(reached[depth[reached] == unreached])
        depth[frontier] = level
    return depth


class GroupHops:
    """Hop rows over the subgraph induced by ``group``, memoized per source.

    Attributes
    ----------
    graph:
        Full network connectivity.
    members:
        The group's node IDs; every row and path stays inside them.
    nodes:
        The group's node IDs, sorted: entry ``c`` of every row is the hop
        distance to ``nodes[c]``.
    index:
        Graph-wide ``node -> column`` array, ``-1`` for non-members.
    sentinel:
        ``len(members) + 1``, the row entry of every member the source does
        not reach, so unreachable pairs sort after every real distance.
    indptr, indices:
        The induced subgraph as int64 CSR arrays in column space: column
        ``c``'s neighbours are ``indices[indptr[c]:indptr[c + 1]]``,
        ascending.
    """

    def __init__(self, graph: NetworkGraph, group: Iterable[int]):
        self.graph = graph
        self.members: Set[int] = set(int(g) for g in group)
        self.nodes = np.array(sorted(self.members), dtype=np.int64)
        self.index = np.full(graph.n_nodes, -1, dtype=np.int64)
        self.index[self.nodes] = np.arange(self.nodes.size)
        self.sentinel = len(self.members) + 1
        # The smallest signed dtype holding the sentinel: a signed type
        # holds ``s`` exactly when it holds ``-s - 1``.
        self._dtype = np.min_scalar_type(-self.sentinel - 1)
        self._rows: Dict[int, np.ndarray] = {}

        # The graph's rows are ascending and ``index`` is monotone on the
        # members, so every column's neighbours stay ascending, as
        # ``path`` needs.
        neighbours, sizes = _csr_rows(*graph.csr(), self.nodes)
        columns = self.index[neighbours]
        inside = columns >= 0
        owner = np.repeat(np.arange(self.nodes.size), sizes)[inside]
        self.indptr = np.zeros(self.nodes.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=self.nodes.size), out=self.indptr[1:])
        self.indices = columns[inside]

    def columns(self, nodes) -> np.ndarray:
        """Row columns of ``nodes``, ``-1`` for every non-member.

        IDs outside the graph map to ``-1`` too, never to a wrapped index.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        inside = (nodes >= 0) & (nodes < self.index.size)
        return np.where(inside, self.index[np.where(inside, nodes, 0)], -1)

    def _column(self, node: int) -> int:
        """Scalar :meth:`columns`."""
        node = int(node)
        return int(self.index[node]) if 0 <= node < self.index.size else -1

    def row(self, source: int) -> np.ndarray:
        """Hop distance from ``source`` to every member, in ``nodes`` order.

        Members ``source`` does not reach hold :attr:`sentinel`; a
        non-member source reaches nothing.  Computed once per source and
        shared, so the array is read-only.
        """
        source = int(source)
        row = self._rows.get(source)
        if row is None:
            column = self._column(source)
            if column < 0:
                row = np.full(self.nodes.size, self.sentinel, dtype=self._dtype)
            else:
                kernels = load_kernels()
                bfs = kernels.bfs_depths if kernels is not None else _bfs_depths
                depth = bfs(self.indptr, self.indices, column, self.sentinel)
                row = depth.astype(self._dtype)
            row.flags.writeable = False
            self._rows[source] = row
        return row

    def distance(self, u: int, v: int) -> int:
        """Hop distance between ``u`` and ``v`` within the group.

        Read from ``u``'s row; :attr:`sentinel` when ``v`` is unreachable
        or either endpoint is outside the group.
        """
        column = self._column(v)
        if column < 0:
            return self.sentinel
        return int(self.row(u)[column])

    def path(self, i: int, j: int) -> Optional[List[int]]:
        """``graph.shortest_path(i, j, within=members)`` from ``j``'s row.

        FIFO BFS over ascending adjacency returns the lexicographically
        smallest shortest path read from the source, which is the walk
        that, from ``i``, always steps to the first in-group neighbour one
        hop closer to ``j``.  Returns None when ``j`` is unreachable or
        either endpoint is outside the group.
        """
        column = self._column(i)
        if column < 0:
            return None
        to_j = self.row(j)
        remaining = int(to_j[column])
        if remaining == self.sentinel:
            return None
        indptr, indices = self.indptr, self.indices
        path = [int(i)]
        while remaining:
            remaining -= 1
            nbrs = indices[indptr[column] : indptr[column + 1]]
            column = nbrs[np.argmax(to_j[nbrs] == remaining)]
            path.append(int(self.nodes[column]))
        return path
