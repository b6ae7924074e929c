"""Unit-ball-graph representation and localized graph queries.

:class:`NetworkGraph` stores node positions and the adjacency induced by a
fixed radio transmission range.  It provides exactly the query surface the
paper's algorithms need: one-hop neighborhoods, restricted BFS (hop counts
and deterministic shortest paths inside a node subset, e.g. the boundary
subgraph), and connected components of induced subgraphs.

The adjacency is stored once, as CSR (:meth:`csr`: ``indptr``/``indices``
with neighbor columns sorted per row).  Every query reads it: a node's
neighbors are a read-only slice of ``indices``, the dict/deque BFS
machinery below walks the rows, and the vectorized bulk queries --
``degrees``, ``edges`` and the hop-bounded floods -- take the arrays whole.

The unit-ball CSR is built in one native pass
(:meth:`repro.geometry.native.NativeKernels.unit_ball_csr`: a count and a
fill sweep over radius-sized grid cells).  Without a C compiler (or under
``REPRO_NATIVE=0``) it is derived from
:meth:`~repro.geometry.spatial_index.UniformGridIndex.neighbor_pairs_array`
with one lexsort instead -- the kernel's differential twin, byte for byte.

The floods -- every node's k-hop frame collection, the IFF flood counts
and connected components -- run in production through the native
hop-bounded BFS (:meth:`repro.geometry.native.NativeKernels.hop_bfs`,
one stamp-array search per source over the CSR rows).  Without a C
compiler (or under ``REPRO_NATIVE=0``) :meth:`k_hop_collections` and
:func:`hop_bounded_sweep` (boolean sparse products of ``(A + I)``
restricted to the source rows) stand in for it and are its differential
twin; components fall back to the deque BFS.  Either way the work
follows the collections, not the network size.  The scalar BFS entry
points are kept as the oracles both are property-tested against.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.native import load_kernels
from repro.geometry.primitives import as_points
from repro.geometry.spatial_index import UniformGridIndex, auto_cell_size


def hop_bounded_sweep(
    operator, hops: int, sources: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hop-bounded reachability from each source, as one CSR triple.

    ``operator`` is a boolean ``(A + I)`` CSR matrix (see
    :meth:`NetworkGraph.reach_operator`; a submatrix of it sweeps an
    induced subgraph).  Level ``h`` is the boolean product of the source
    rows with ``operator`` taken ``h`` times -- the set within ``h`` hops
    -- and an entry's hop count follows from how many of the levels
    ``0..hops`` contain it.  Work is proportional to the collections
    produced, O(sources * rho^hops), never to the graph.

    Returns ``(ptr, nodes, hop_counts)`` (all int64): source ``i``'s
    collection is ``nodes[ptr[i]:ptr[i+1]]``, ascending and including the
    source itself at hop 0, with ``hop_counts`` aligned to ``nodes``.
    """
    from scipy import sparse

    n_src = sources.size
    reach = sparse.csr_matrix(
        (np.ones(n_src, dtype=bool), sources, np.arange(n_src + 1)),
        shape=(n_src, operator.shape[0]),
    )
    levels = reach.astype(np.int32)
    depth = 0
    while depth < hops:
        grown = reach @ operator
        if grown.nnz == reach.nnz:
            break  # every row stopped growing: later levels repeat this one
        reach = grown
        levels = levels + reach.astype(np.int32)
        depth += 1
    levels.sort_indices()
    return (
        levels.indptr.astype(np.int64),
        levels.indices.astype(np.int64),
        (depth + 1 - levels.data).astype(np.int64),
    )


def _csr_from_arcs(
    n: int, heads: np.ndarray, tails: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the directed arcs ``heads -> tails``.

    One lexsort by ``(head, tail)`` sorts every row's columns in place.
    """
    order = np.lexsort((tails, heads))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    return indptr, tails[order].astype(np.int64, copy=False)


class NetworkGraph:
    """Immutable undirected graph over positioned nodes.

    Parameters
    ----------
    positions:
        ``(n, 3)`` node positions.
    radio_range:
        Maximum transmission range; two nodes are neighbors iff their
        Euclidean distance is at most this value.  The paper normalizes it
        to 1 (Definition 1) and so does the generator, but the class accepts
        any positive value.
    adjacency:
        Optional pre-computed adjacency (list of neighbor-index sequences).
        When omitted the unit-ball CSR is built over a uniform grid in
        ``O(n)`` expected time.
    """

    def __init__(self, positions, radio_range: float = 1.0, adjacency=None):
        self._positions = as_points(positions).copy()
        if radio_range <= 0:
            raise ValueError("radio_range must be positive")
        self._radio_range = float(radio_range)
        n = self._positions.shape[0]
        if adjacency is None:
            kernels = load_kernels()
            if kernels is not None:
                self._indptr, self._indices = kernels.unit_ball_csr(
                    self._positions, self._radio_range
                )
            else:
                pairs = UniformGridIndex(
                    self._positions, cell_size=auto_cell_size(self._radio_range)
                ).neighbor_pairs_array(self._radio_range)
                self._indptr, self._indices = _csr_from_arcs(
                    n,
                    np.concatenate([pairs[:, 0], pairs[:, 1]]),
                    np.concatenate([pairs[:, 1], pairs[:, 0]]),
                )
        else:
            if len(adjacency) != n:
                raise ValueError("adjacency length must match number of nodes")
            rows = [np.asarray(list(nbrs), dtype=np.int64) for nbrs in adjacency]
            sizes = np.fromiter((r.size for r in rows), dtype=np.int64, count=n)
            self._indptr, self._indices = _csr_from_arcs(
                n,
                np.repeat(np.arange(n, dtype=np.int64), sizes),
                np.concatenate(rows) if n else np.empty(0, dtype=np.int64),
            )
        self._neighbor_sets_cache: Optional[List[Set[int]]] = None
        self._edge_array: Optional[np.ndarray] = None
        self._reach_operator = None

    @classmethod
    def from_csr(
        cls,
        positions: np.ndarray,
        radio_range: float,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "NetworkGraph":
        """Rebuild a graph from a previously exported CSR adjacency.

        The inverse of :meth:`csr` (plus ``positions``/``radio_range``):
        per-row neighbor columns must already be sorted ascending, exactly
        as :meth:`csr` emits them.  Unlike the constructor, nothing is
        re-derived or copied -- ``positions`` and ``indices`` are adopted
        as-is (read-only shared-memory buffers included), with no per-node
        work.  This is the zero-copy rehydration path for shared-memory
        payloads.
        """
        self = cls.__new__(cls)
        pos = as_points(positions)
        if radio_range <= 0:
            raise ValueError("radio_range must be positive")
        self._positions = pos
        self._radio_range = float(radio_range)
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)
        n = pos.shape[0]
        if self._indptr.shape != (n + 1,) or self._indptr[-1] != self._indices.size:
            raise ValueError("indptr does not describe indices")
        self._neighbor_sets_cache = None
        self._edge_array = None
        self._reach_operator = None
        return self

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._positions.shape[0]

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._positions.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """Node positions as a read-only ``(n, 3)`` view.

        The same view object on every call, so a frame batch that indexes
        it (:func:`repro.network.localization.true_frames`) can be told
        apart from one that owns its coordinates by identity.
        """
        view = getattr(self, "_positions_view", None)
        if view is None:
            view = self._positions.view()
            view.flags.writeable = False
            self._positions_view = view
        return view

    @property
    def radio_range(self) -> float:
        """The transmission range defining adjacency."""
        return self._radio_range

    def position(self, node: int) -> np.ndarray:
        """Position of one node."""
        return self._positions[node].copy()

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted, read-only array of the node's one-hop neighbors.

        A slice of the CSR ``indices`` (see :meth:`csr`), not a copy.
        """
        row = self._indices[self._indptr[node] : self._indptr[node + 1]]
        row.flags.writeable = False
        return row

    def _row(self, node: int) -> List[int]:
        """The node's neighbors as Python ints, for the BFS loops."""
        return self._indices[self._indptr[node] : self._indptr[node + 1]].tolist()

    def degree(self, node: int) -> int:
        """Number of one-hop neighbors."""
        return int(self._indptr[node + 1] - self._indptr[node])

    def degrees(self) -> np.ndarray:
        """Array of all node degrees (from the CSR row extents)."""
        return np.diff(self._indptr).astype(int)

    @property
    def _neighbor_sets(self) -> List[Set[int]]:
        """Per-node neighbor sets, materialized on first membership query.

        Building 100k+ Python sets costs seconds and most bulk callers
        (generation, UBF, localization sweeps) never ask ``has_edge``, so
        the hash-set twin of the CSR adjacency is created lazily.
        """
        if self._neighbor_sets_cache is None:
            bounds = self._indptr.tolist()
            indices = self._indices.tolist()
            self._neighbor_sets_cache = [
                set(indices[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        return self._neighbor_sets_cache

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are one-hop neighbors."""
        return v in self._neighbor_sets[u]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All edges as ``(u, v)`` tuples with ``u < v``.

        Backed by the vectorized :meth:`edge_array`; iteration order is the
        historical one (ascending ``u``, then ascending ``v``).
        """
        return (tuple(row) for row in self.edge_array().tolist())

    def edge_array(self) -> np.ndarray:
        """All edges as a read-only ``(E, 2)`` array with ``u < v`` per row.

        Rows are ordered by ascending ``u`` then ``v`` -- exactly the order
        :meth:`edges` yields.  Built once from the CSR view and cached.
        """
        if self._edge_array is None:
            heads = np.repeat(np.arange(self.n_nodes), np.diff(self._indptr))
            mask = heads < self._indices
            arr = np.column_stack([heads[mask], self._indices[mask]])
            arr.flags.writeable = False
            self._edge_array = arr
        return self._edge_array

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (half the CSR directed-entry count)."""
        return int(self._indices.size) // 2

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The CSR adjacency view as read-only ``(indptr, indices)``.

        ``indices[indptr[u]:indptr[u+1]]`` are ``u``'s neighbors, sorted
        ascending; both arrays are views of the graph's internal storage.
        """
        indptr = self._indptr.view()
        indptr.flags.writeable = False
        indices = self._indices.view()
        indices.flags.writeable = False
        return indptr, indices

    def distance(self, u: int, v: int) -> float:
        """True Euclidean distance between two nodes."""
        return float(np.linalg.norm(self._positions[u] - self._positions[v]))

    # ------------------------------------------------------------------
    # BFS machinery (full graph or induced subgraph)
    # ------------------------------------------------------------------

    def bfs_hops(
        self,
        sources: Iterable[int],
        *,
        within: Optional[Set[int]] = None,
        max_hops: Optional[int] = None,
    ) -> Dict[int, int]:
        """Hop distance from the nearest source to every reachable node.

        Parameters
        ----------
        sources:
            Starting nodes (hop 0).
        within:
            When given, BFS runs on the subgraph induced by this node set;
            sources outside it are ignored.
        max_hops:
            Stop expanding beyond this hop count.

        Returns
        -------
        dict
            ``node -> hops`` for every node reached.
        """
        hops: Dict[int, int] = {}
        queue: deque = deque()
        for s in sorted(set(int(s) for s in sources)):
            if within is not None and s not in within:
                continue
            hops[s] = 0
            queue.append(s)
        while queue:
            u = queue.popleft()
            if max_hops is not None and hops[u] >= max_hops:
                continue
            for v in self._row(u):
                if v in hops:
                    continue
                if within is not None and v not in within:
                    continue
                hops[v] = hops[u] + 1
                queue.append(v)
        return hops

    def reach_operator(self):
        """``(A + I)`` as a boolean ``scipy.sparse`` CSR matrix, built once.

        Row ``u`` holds ``u`` and its neighbors (columns sorted), so one
        boolean product with it grows every row's reached set by one hop --
        the operator :func:`hop_bounded_sweep` multiplies by.  Cached next
        to :meth:`csr` so per-shard sweeps cost their own output, not
        O(edges) each.
        """
        if self._reach_operator is None:
            from scipy import sparse

            n = self.n_nodes
            adjacency = sparse.csr_matrix(
                (np.ones(self._indices.size, dtype=bool), self._indices, self._indptr),
                shape=(n, n),
            )
            self._reach_operator = (
                adjacency + sparse.identity(n, dtype=bool, format="csr")
            ).tocsr()
        return self._reach_operator

    def k_hop_collections(
        self, hops: int, *, sources: Optional[Sequence[int]] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every source's ``hops``-hop collection in one sparse sweep.

        Semantically equivalent to ``bfs_hops([s], max_hops=hops)`` run for
        each source independently (the dict/deque implementation above is
        kept as the differential oracle); see :func:`hop_bounded_sweep` for
        the returned CSR triple.  ``sources`` defaults to every node; rows
        are per-source independent, so any subset (unsorted, duplicated)
        returns exactly the rows of the full sweep -- the shard driver
        relies on this.  Frame collection runs on it only without native
        kernels; otherwise it is the differential twin of
        :meth:`repro.geometry.native.NativeKernels.hop_bfs`.
        """
        if hops < 0:
            raise ValueError("hops must be non-negative")
        src = (
            np.arange(self.n_nodes, dtype=np.int64)
            if sources is None
            else np.asarray([int(s) for s in sources], dtype=np.int64)
        )
        if src.size and (src.min() < 0 or src.max() >= self.n_nodes):
            raise ValueError("source ids must lie in [0, n_nodes)")
        return hop_bounded_sweep(self.reach_operator(), hops, src)

    def shortest_path(
        self,
        source: int,
        target: int,
        *,
        within: Optional[Set[int]] = None,
    ) -> Optional[List[int]]:
        """Deterministic shortest hop path from ``source`` to ``target``.

        Among equally short paths the lexicographically smallest one read
        from ``source`` wins (each node keeps its first-discovered parent,
        not its lowest-ID one), so repeated runs -- and the distributed
        implementation in :mod:`repro.runtime` -- produce the identical
        path.  Returns None when ``target`` is unreachable (inside
        ``within`` if given).
        """
        if within is not None and (source not in within or target not in within):
            return None
        if source == target:
            return [source]
        parent: Dict[int, int] = {source: -1}
        queue: deque = deque([source])
        while queue:
            u = queue.popleft()
            # Neighbors are pre-sorted, so FIFO order visits each layer in
            # lexicographic order of the nodes' paths from the source; the
            # first discoverer of a node therefore ends its
            # lexicographically smallest shortest path.
            for v in self._row(u):
                if v in parent:
                    continue
                if within is not None and v not in within:
                    continue
                parent[v] = u
                if v == target:
                    path = [v]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                queue.append(v)
        return None

    def connected_components(
        self, *, within: Optional[Set[int]] = None
    ) -> List[List[int]]:
        """Connected components (each sorted) of the graph or a node subset.

        Components are returned sorted by their smallest member, matching
        the deterministic min-ID grouping of the distributed protocol.
        With native kernels this is one unbounded masked BFS with a shared
        visited set, seeded in ascending node order; the deque BFS below
        is the fallback and the oracle.
        """
        if within is None:
            nodes: Sequence[int] = range(self.n_nodes)
            member = None
        else:
            nodes = sorted(within)
            member = within
        kernels = load_kernels()
        if kernels is not None:
            seeds = np.asarray(nodes, dtype=np.int64)
            mask = None
            if member is not None:
                mask = np.zeros(self.n_nodes, dtype=np.uint8)
                mask[seeds] = 1
            ptr, _, flat = kernels.hop_bfs(
                self._indptr, self._indices, seeds, -1, mask=mask, shared=True
            )
            return [
                np.sort(flat[lo:hi]).tolist()
                for lo, hi in zip(ptr[:-1].tolist(), ptr[1:].tolist())
                if hi > lo
            ]
        seen: Set[int] = set()
        components: List[List[int]] = []
        for start in nodes:
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            queue: deque = deque([start])
            while queue:
                u = queue.popleft()
                for v in self._row(u):
                    if v in seen:
                        continue
                    if member is not None and v not in member:
                        continue
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
            components.append(sorted(comp))
        return components

    def is_connected(self) -> bool:
        """Whether the whole graph is a single connected component.

        One unbounded count-only BFS from node 0 through the native
        kernel, or :meth:`bfs_hops` without it.
        """
        if self.n_nodes == 0:
            return True
        kernels = load_kernels()
        if kernels is not None:
            ptr, _, _ = kernels.hop_bfs(
                self._indptr, self._indices, np.zeros(1, dtype=np.int64), -1,
                fill=False,
            )
            return int(ptr[1]) == self.n_nodes
        reached = self.bfs_hops([0])
        return len(reached) == self.n_nodes
