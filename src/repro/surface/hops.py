"""Hop distances and shortest paths inside one boundary group, as rows.

Steps I-V of the surface construction (Sec. III) all reason over hop
distances from landmarks within one boundary group: landmark election and
Voronoi cells (I), CDM and completion paths (III, IV), candidate pairs
(IV), and edge lengths for flips and hole patches (V).  :class:`GroupHops`
cuts the group's induced subgraph out of the network's CSR adjacency and
computes one hop row per source -- the source's distance to every group
member, from ``scipy.sparse.csgraph`` -- at most once per source.  One
landmark's row is shared by every step, every landmark spacing tried, and
every finalize round of :class:`repro.surface.pipeline.SurfaceBuilder`.

The scalar BFS queries of :class:`repro.network.graph.NetworkGraph` stay
the reference these rows and paths are tested against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.network.graph import NetworkGraph


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
    subgraph:
        The induced subgraph as a ``scipy.sparse`` CSR matrix in column
        space, neighbour columns ascending in every row.
    """

    def __init__(self, graph: NetworkGraph, group: Iterable[int]):
        from scipy.sparse import csr_matrix

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

        # Induced subgraph in column space, float64 (what csgraph runs on,
        # so no call converts it).  ``path`` needs every row's neighbours
        # ascending, as in ``graph.csr()``.
        indptr, indices = graph.csr()
        n = graph.n_nodes
        adjacency = csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
        self.subgraph = adjacency[self.nodes][:, self.nodes]
        self.subgraph.sort_indices()

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
                from scipy.sparse.csgraph import shortest_path

                # The subgraph is symmetric, so ``directed=True`` is exact
                # and skips the CSC conversion an undirected call makes.
                dist = shortest_path(
                    self.subgraph, unweighted=True, directed=True, indices=[column]
                )[0]
                dist[np.isinf(dist)] = self.sentinel
                row = dist.astype(self._dtype)
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
        indptr, indices = self.subgraph.indptr, self.subgraph.indices
        path = [int(i)]
        while remaining:
            remaining -= 1
            nbrs = indices[indptr[column] : indptr[column + 1]]
            column = nbrs[np.argmax(to_j[nbrs] == remaining)]
            path.append(int(self.nodes[column]))
        return path
