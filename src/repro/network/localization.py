"""Per-node local coordinate systems from local distance measurements.

Step (I) of Algorithm 1: each node collects the measured distances among
the nodes of its local collection neighborhood, completes the missing pairs
via local shortest paths, and embeds the collection with classical MDS into
a private 3D frame.  Only *relative* geometry matters to UBF, so no global
alignment is attempted -- exactly the paper's "local coordinates system
(without global alignment) is sufficient".

Collection radius
-----------------
Candidate balls of radius ``r`` touching a node reach up to ``2r`` away
from it, and the paper's Lemma 1 and Theorem 1 explicitly reason about the
nodes "within 2r".  A node therefore needs (approximate) positions for its
*2-hop* collection to run the emptiness test the analysis describes; the
improved-MDS localization the paper adopts ([31], MDS-MAP-style) builds
exactly such multi-hop local maps.  The default collection radius here is
2 hops; a 1-hop mode (Algorithm 1's most literal reading) is available and
benchmarked as an ablation -- it floods the interior with false positives
because each ball's far side is invisible to the check.

Engines
-------
:func:`build_frames` constructs every node's frame through one of two
engines with *observably identical* results:

``pernode``
    The oracle: one BFS, one O(m^2) Python-loop matrix assembly, and one
    MDS chain per node (:func:`establish_local_frame` in a loop, through
    :func:`~repro.geometry.mds.local_mds_embedding`: the same completion
    and eigensolve on a 1-stack, then the scalar SMACOF oracle).
``sparse`` (default)
    The production engine: one batched hop-bounded BFS for every node's
    collection (the native
    :meth:`~repro.geometry.native.NativeKernels.hop_bfs`, or the
    :meth:`~repro.network.graph.NetworkGraph.k_hop_collections` sweep
    without native kernels), frames of equal size grouped into
    ``(B, m, m)`` stacks, and the MDS chain of :mod:`repro.geometry.mds`
    run once per stack -- Floyd-Warshall completion, Torgerson centering,
    a top-3 subset eigensolve (LAPACK ``dsyevr``) instead of the full
    spectrum, and SMACOF over the measured *edge list* rather than dense
    ``(m, m)`` weight matrices.  Assembly, completion, centering, the
    eigensolve loop and refinement use the native kernels from
    :mod:`repro.geometry.native` whenever they load, so the engine then
    imports no scipy module; otherwise the numpy forms
    (:func:`~repro.geometry.mds.complete_distance_matrix`,
    :func:`~repro.geometry.mds.torgerson_gram_batch`,
    :func:`~repro.geometry.mds.smacof_refine_batch`) and scipy's f2py
    ``dsyevr`` wrapper run behind the same contract.

The engine contract (enforced by the differential tests): member lists,
one-hop counts, and SMACOF iteration counts agree *exactly*; coordinates
agree within :data:`repro.geometry.mds.SMACOF_BATCH_COORD_TOL` (the
sparse chain restructures SMACOF's float arithmetic -- Gram-identity
distances, algebraic stress expansion, edge-list updates -- which
perturbs results at the ~1e-14..1e-10 level while taking the identical
number of majorization steps).  The classical-MDS seed handed to SMACOF
is *bit-identical* across engines -- both complete through
:func:`~repro.geometry.mds.complete_distance_matrix`, center through
``torgerson_gram_batch`` (or their native twins), and eigensolve through
:func:`~repro.geometry.mds.classical_mds_from_gram_stack` -- because on
frames with near-noise-floor measured distances the majorization
amplifies a last-ulp seed difference by several orders of magnitude,
past the contract tolerance.  Frames
smaller than :data:`SCALAR_FALLBACK_MEMBERS` are delegated to the scalar
MDS kernel *inside* the sparse engine: near-isolated collections produce
rank-deficient systems whose majorization trajectory is sensitive at the
last-ulp level, batching amortizes nothing over their O(1) work, and the
delegation makes them bit-identical to the oracle by construction.  For
the same reason both SMACOF paths hand a frame whose measured-pair graph
is disconnected (possible only when a ranging value is missing) to the
oracle's scalar refinement, whose pseudo-inverse handles the singular
system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.geometry.mds import (
    UNREACHABLE_LOCAL_DISTANCE,
    classical_mds_from_gram_stack,
    complete_distance_matrix,
    local_mds_embedding,
    smacof_refine_batch,
    torgerson_gram_batch,
)
from repro.geometry.native import load_kernels
from repro.network.graph import NetworkGraph
from repro.network.measurement import MeasuredDistances

#: Default collection radius in hops (see module docstring).
DEFAULT_COLLECTION_HOPS = 2

#: Frame-construction engines :func:`build_frames` accepts.
ENGINES = ("sparse", "pernode")

#: Default engine (see the module docstring's "Engines" section).
DEFAULT_ENGINE = "sparse"

#: Upper bound on frames per MDS batch -- beyond this the per-call numpy
#: overhead is already amortized and larger stacks only cost memory.
MAX_BATCH_FRAMES = 64

#: Upper bound on ``B * m * m`` elements per batched partial-distance
#: stack, keeping the working set of one batch a few tens of megabytes
#: even for unusually large collections.
MAX_BATCH_ELEMENTS = 1 << 22

#: Collections with fewer members than this are embedded with the scalar
#: MDS kernel even under the ``sparse`` engine.  Such near-isolated frames
#: yield rank-deficient stress systems whose majorization step count flips
#: under last-ulp arithmetic differences, so the only way to honor the
#: exact-iteration-count contract on them is to run the oracle's kernel --
#: which costs nothing, as batching has no overhead to amortize at O(1)
#: frame sizes.
SCALAR_FALLBACK_MEMBERS = 8

@dataclass
class LocalFrame:
    """The local coordinate system of one node.

    Attributes
    ----------
    node:
        The owning node's ID.
    members:
        IDs in the frame: the node itself first, then its sorted one-hop
        neighbors, then the sorted remainder of the collection (nodes at
        2..h hops).
    coordinates:
        ``(len(members), 3)`` embedded positions; row ``k`` corresponds to
        ``members[k]``.  The frame is arbitrary up to rigid motion and
        reflection.  A :class:`FrameBatch` holds no such array per frame:
        its views gather these rows from the batch's point table through
        its row index.
    n_one_hop:
        Number of one-hop neighbors; rows ``1 .. n_one_hop`` of
        ``coordinates`` are the pair candidates for ball construction.
    smacof_iterations:
        SMACOF refinement steps the embedding took (0 for frames that do
        not run MDS, e.g. ground-truth frames).  A deterministic
        observable of the MDS chain: both engines must agree on it
        exactly, which the differential tests pin down.
    """

    node: int
    members: List[int]
    coordinates: np.ndarray
    n_one_hop: int
    smacof_iterations: int = 0

    @property
    def origin_coordinates(self) -> np.ndarray:
        """The owning node's position inside its own frame."""
        return self.coordinates[0]

    @property
    def neighbor_coordinates(self) -> np.ndarray:
        """Positions of the one-hop neighbors (ball-pair candidates)."""
        return self.coordinates[1 : 1 + self.n_one_hop]

    @property
    def collection_coordinates(self) -> np.ndarray:
        """Positions of the full collection (all rows except the origin)."""
        return self.coordinates[1:]


@dataclass(eq=False)
class FrameBatch:
    """The local frames of ``k`` nodes as one CSR batch over a point table.

    Frame ``i`` is rows ``ptr[i]:ptr[i + 1]`` of ``members`` (int64 node
    IDs) in :class:`LocalFrame`'s row layout -- the owner ``nodes[i]``
    first, then its one-hop neighbors ascending, then the farther members
    ascending -- with ``n_one_hop[i]`` and ``smacof_iterations[i]``
    alongside (all int64).  Coordinates are a point table plus a row
    index: frame row ``r`` sits at ``points[rows[r]]``.  Ground-truth
    frames (:func:`true_frames`) index the network's positions --
    ``points`` is ``graph.positions`` and ``rows`` is ``members``, both
    shared, so no per-member float exists -- while embedded frames own
    their table and index it with ``rows = arange(M)``.  :attr:`coords`
    materializes ``points[rows]`` on demand.  Localization produces the
    batch and UBF consumes the table and index directly;
    :class:`LocalFrame` objects exist only as views (:meth:`frame`,
    iteration) and as per-node oracle outputs, which :meth:`from_frames`
    packs.
    """

    nodes: np.ndarray
    ptr: np.ndarray
    members: np.ndarray
    points: np.ndarray
    rows: np.ndarray
    n_one_hop: np.ndarray
    smacof_iterations: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def coords(self) -> np.ndarray:
        """Every frame row's coordinates, ``(M, 3)`` (a fresh copy)."""
        return self.points[self.rows]

    def frame(self, i: int) -> LocalFrame:
        """Frame ``i`` as a :class:`LocalFrame` (coordinates are a copy)."""
        lo, hi = int(self.ptr[i]), int(self.ptr[i + 1])
        return LocalFrame(
            node=int(self.nodes[i]),
            members=self.members[lo:hi].tolist(),
            coordinates=self.points[self.rows[lo:hi]],
            n_one_hop=int(self.n_one_hop[i]),
            smacof_iterations=int(self.smacof_iterations[i]),
        )

    def __iter__(self) -> Iterator[LocalFrame]:
        return map(self.frame, range(len(self)))

    @classmethod
    def from_frames(cls, frames: Iterable[LocalFrame]) -> "FrameBatch":
        """Pack per-node frames (oracle outputs, mapping values) in order."""
        frames = list(frames)
        ptr = np.zeros(len(frames) + 1, dtype=np.int64)
        np.cumsum([len(f.members) for f in frames], out=ptr[1:])
        return cls(
            nodes=np.array([f.node for f in frames], dtype=np.int64),
            ptr=ptr,
            # The trailing empty pieces cover ``frames == []``.
            members=np.concatenate(
                [np.asarray(f.members, dtype=np.int64) for f in frames]
                + [np.empty(0, dtype=np.int64)]
            ),
            points=np.concatenate(
                [np.asarray(f.coordinates, dtype=float) for f in frames]
                + [np.empty((0, 3))]
            ),
            rows=np.arange(ptr[-1], dtype=np.int64),
            n_one_hop=np.array([f.n_one_hop for f in frames], dtype=np.int64),
            smacof_iterations=np.array(
                [f.smacof_iterations for f in frames], dtype=np.int64
            ),
        )

    @classmethod
    def concat(cls, batches: Sequence["FrameBatch"]) -> "FrameBatch":
        """One batch holding ``batches``' frames in order (the merge of
        MDS frame shards): the point tables are stacked and each batch's
        row index is offset into the stack."""
        if not batches:
            return cls.from_frames([])
        joined = {
            name: np.concatenate([getattr(b, name) for b in batches])
            for name in ("nodes", "members", "n_one_hop", "smacof_iterations")
        }
        ptr = np.zeros(len(joined["nodes"]) + 1, dtype=np.int64)
        np.cumsum(np.concatenate([np.diff(b.ptr) for b in batches]), out=ptr[1:])
        bases = np.cumsum([0] + [len(b.points) for b in batches[:-1]])
        points = np.concatenate([b.points for b in batches])
        rows = np.concatenate(
            [b.rows + base for b, base in zip(batches, bases.tolist())]
        )
        return cls(ptr=ptr, points=points, rows=rows, **joined)


def _frame_members(graph: NetworkGraph, node: int, hops: int) -> (List[int], int):
    """Ordered member list: node, 1-hop neighbors, then farther collection."""
    one_hop = [int(v) for v in graph.neighbors(node)]
    if hops <= 1:
        return [node] + one_hop, len(one_hop)
    reached = graph.bfs_hops([node], max_hops=hops)
    farther = sorted(v for v, d in reached.items() if d >= 2)
    return [node] + one_hop + farther, len(one_hop)


def _partial_distance_matrix(
    graph: NetworkGraph, measured: MeasuredDistances, members: List[int]
) -> np.ndarray:
    """Measured-distance matrix over ``members`` with inf for unmeasured pairs."""
    m = len(members)
    dist = np.full((m, m), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a in range(m):
        for b in range(a + 1, m):
            u, v = members[a], members[b]
            if graph.has_edge(u, v):
                dist[a, b] = dist[b, a] = measured.get(u, v)
    return dist


def establish_local_frame(
    graph: NetworkGraph,
    measured: MeasuredDistances,
    node: int,
    *,
    hops: int = DEFAULT_COLLECTION_HOPS,
) -> LocalFrame:
    """Build the MDS local frame of one node from local measurements.

    Locality: uses only the node's ``hops``-hop collection and the measured
    distances among it -- information gathered with ``hops`` beacon rounds
    in a real deployment (2 by default, matching the ``2r`` reach of the
    candidate balls).
    """
    members, n_one_hop = _frame_members(graph, node, hops)
    partial = _partial_distance_matrix(graph, measured, members)
    coords, steps = local_mds_embedding(partial)
    return LocalFrame(
        node=node,
        members=members,
        coordinates=coords,
        n_one_hop=n_one_hop,
        smacof_iterations=steps,
    )


def build_frames(
    graph: NetworkGraph,
    measured: MeasuredDistances,
    *,
    hops: int = DEFAULT_COLLECTION_HOPS,
    engine: str = DEFAULT_ENGINE,
    nodes: Optional[Sequence[int]] = None,
) -> FrameBatch:
    """MDS local frames for ``nodes`` (all nodes by default), in order.

    ``engine`` selects ``"sparse"`` (default) or the ``"pernode"`` oracle;
    both produce observably identical frames -- exact members and SMACOF
    step counts, coordinates within a documented float tolerance (see the
    module docstring).  Every node's frame still reads only its own
    ``hops``-hop collection -- the sparse engine changes how the per-node
    computations are *scheduled*, never what information they consume, so
    the paper's locality argument is untouched.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    node_ids = (
        list(range(graph.n_nodes)) if nodes is None else [int(n) for n in nodes]
    )
    if engine == "pernode":
        return FrameBatch.from_frames(
            establish_local_frame(graph, measured, node, hops=hops)
            for node in node_ids
        )
    return _build_frames_sparse(graph, measured, node_ids, hops)


def _frame_order_from_sweep(graph: NetworkGraph, sources: np.ndarray, hops: int):
    """``(ptr, members, n_one_hop)`` in frame order from the sparse sweep.

    ``k_hop_collections`` returns each collection ascending; one flat pass
    over its CSR triple applies a stable per-segment sort moving hop >= 2
    members behind the one-hop ones (stability keeps both halves
    ascending), then splices the owning node in at each segment start.
    """
    ptr, nodes, hop_counts = graph.k_hop_collections(hops, sources=sources)
    n_sources = sources.size
    segment = np.repeat(np.arange(n_sources, dtype=np.int64), np.diff(ptr))
    keep = hop_counts >= 1  # drop the hop-0 source itself
    nodes = nodes[keep]
    hop_counts = hop_counts[keep]
    segment = segment[keep]
    ordered = nodes[np.lexsort((hop_counts >= 2, segment))]
    n_one_hop = np.bincount(segment, weights=hop_counts == 1, minlength=n_sources)

    sizes = np.bincount(segment, minlength=n_sources) + 1
    frame_ptr = np.zeros(n_sources + 1, dtype=np.int64)
    np.cumsum(sizes, out=frame_ptr[1:])
    members_flat = np.empty(int(frame_ptr[-1]), dtype=np.int64)
    starts = frame_ptr[:-1]
    members_flat[starts] = sources
    fill = np.ones(members_flat.size, dtype=bool)
    fill[starts] = False
    members_flat[fill] = ordered
    return frame_ptr, members_flat, n_one_hop.astype(np.int64)


def true_frames(
    graph: NetworkGraph, node_ids: Sequence[int], *, hops: int = DEFAULT_COLLECTION_HOPS
) -> FrameBatch:
    """Ground-truth frames for ``node_ids`` from one batched collection.

    Frame for frame identical to :func:`true_local_frame` (its per-node
    BFS twin and oracle): frame ``i``'s members mirror
    :func:`_frame_members` for ``node_ids[i]`` -- the node itself, then
    its one-hop neighbors ascending, then the farther collection
    ascending -- and its coordinates are ``positions[members]`` bit for
    bit.  The native hop-bounded BFS
    (:meth:`~repro.geometry.native.NativeKernels.hop_bfs`) emits ``ptr``,
    ``members`` and ``n_one_hop`` in exactly that order; without native
    kernels one :meth:`~repro.network.graph.NetworkGraph.k_hop_collections`
    sweep, the kernel's differential twin, is reordered into it.  The
    batch copies no coordinate: its point table is ``graph.positions``
    itself and its row index is ``members``.  The sparse MDS engine
    starts from this batch and swaps in a table of its own.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    sources = np.asarray(node_ids, dtype=np.int64).reshape(-1)
    kernels = load_kernels()
    if kernels is not None:
        frame_ptr, n_one_hop, members = kernels.hop_bfs(*graph.csr(), sources, hops)
    else:
        frame_ptr, members, n_one_hop = _frame_order_from_sweep(graph, sources, hops)
    return FrameBatch(
        nodes=sources,
        ptr=frame_ptr,
        members=members,
        points=graph.positions,
        rows=members,
        n_one_hop=n_one_hop,
        smacof_iterations=np.zeros(sources.size, dtype=np.int64),
    )


def _assemble_partial_stack(
    member_ids: np.ndarray,
    m: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_vals: np.ndarray,
    local_index: np.ndarray,
) -> np.ndarray:
    """Measured partial-distance ``(B, m, m)`` stack via CSR gather.

    ``member_ids`` is ``(B, m)``: one row of member node IDs per frame.

    ``local_index`` is a caller-owned ``(n_nodes,)`` int64 scratch filled
    with -1; it is restored to -1 before returning.
    """
    local_rows = np.arange(m, dtype=np.int64)
    partial = np.full((member_ids.shape[0], m, m), np.inf)
    partial[:, local_rows, local_rows] = 0.0
    for b, members in enumerate(member_ids):
        local_index[members] = local_rows
        row_starts = indptr[members]
        counts = indptr[members + 1] - row_starts
        total = int(counts.sum())
        rows = np.repeat(local_rows, counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        csr_pos = np.repeat(row_starts, counts) + offsets
        cols = local_index[indices[csr_pos]]
        inside = cols >= 0
        partial[b, rows[inside], cols[inside]] = edge_vals[csr_pos[inside]]
        local_index[members] = -1
    return partial


def _build_frames_sparse(
    graph: NetworkGraph,
    measured: MeasuredDistances,
    node_ids: List[int],
    hops: int,
) -> FrameBatch:
    """The ``sparse`` engine behind :func:`build_frames`.

    One multi-source BFS sweep yields every collection; frames are grouped
    by member count ``m`` into ``(B, m, m)`` stacks and run through the MDS
    chain of the module docstring: Floyd-Warshall completion, top-3 subset
    eigensolves, and edge-list SMACOF, with the hot loops running in the
    native kernels when they load.  Per-frame computations stay
    independent -- grouping, chunk caps, and kernel availability cannot
    change any frame's result beyond the documented engine tolerance, so
    sharded runs remain partition-invariant.  Each chunk's coordinates
    and step counts land in the batch's rows directly.
    """
    batch = true_frames(graph, node_ids, hops=hops)
    ptr, members = batch.ptr, batch.members
    # The embedding's own table; frame row r is table row r.
    batch.points = np.empty((members.size, 3))
    batch.rows = np.arange(members.size, dtype=np.int64)
    if not node_ids:
        return batch
    kernels = load_kernels()
    indptr, indices = graph.csr()
    edge_vals = measured.csr_values(indptr, indices)
    sizes = np.diff(ptr)
    # Scratch global->local maps (int32 for the C kernel, int64 for the
    # numpy gather), reset to -1 after each frame's assembly.
    local_index64 = np.full(graph.n_nodes, -1, dtype=np.int64)
    local_index32 = (
        np.full(graph.n_nodes, -1, dtype=np.int32) if kernels is not None else None
    )
    for m in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == m)
        cap = max(1, min(MAX_BATCH_FRAMES, MAX_BATCH_ELEMENTS // max(1, m * m)))
        diag = np.arange(m)
        for start in range(0, len(group), cap):
            chunk = group[start : start + cap]
            nb = len(chunk)
            rows = (ptr[chunk][:, None] + diag[None, :]).ravel()
            member_ids = members[rows].reshape(nb, m)

            if m < SCALAR_FALLBACK_MEMBERS:
                # Tiny rank-deficient frames: run the oracle's scalar
                # kernel per slice (see SCALAR_FALLBACK_MEMBERS).
                partial = _assemble_partial_stack(
                    member_ids, m, indptr, indices, edge_vals, local_index64
                )
                coords = np.empty((nb, m, 3))
                iters: np.ndarray = np.zeros(nb, dtype=int)
                for b in range(nb):
                    coords[b], iters[b] = local_mds_embedding(partial[b])
                batch.points[rows] = coords.reshape(-1, 3)
                batch.smacof_iterations[chunk] = iters
                continue

            frame_ptr = np.arange(nb + 1, dtype=np.int64) * m
            if kernels is not None:
                members_cat = member_ids.ravel()
                stack = np.empty((nb, m, m))
                partial_ptr = np.arange(nb + 1, dtype=np.int64) * (m * m)
                degree_sum = int(
                    (indptr[members_cat + 1] - indptr[members_cat]).sum()
                )
                edge_cap = degree_sum // 2 + 1
                edge_src = np.empty(edge_cap, dtype=np.int32)
                edge_dst = np.empty(edge_cap, dtype=np.int32)
                edge_delta = np.empty(edge_cap, dtype=np.float64)
                edge_ptr = np.zeros(nb + 1, dtype=np.int64)
                kernels.assemble_frames(
                    members_cat, frame_ptr, indptr, indices, edge_vals,
                    stack, partial_ptr,
                    edge_src, edge_dst, edge_delta, edge_ptr, local_index32,
                )
            else:
                stack = _assemble_partial_stack(
                    member_ids, m, indptr, indices, edge_vals, local_index64
                )

            # Floyd-Warshall completion and Torgerson centering, then the
            # top-3 subset eigensolve per frame.
            if kernels is not None:
                gram = stack
                kernels.fw_complete(gram, UNREACHABLE_LOCAL_DISTANCE)
                kernels.center_gram(gram)
            else:
                gram = torgerson_gram_batch(complete_distance_matrix(stack))
            coords = classical_mds_from_gram_stack(gram)

            # Edge-list SMACOF against the measured distances only (the
            # native kernel refines coords in place through the view).
            if kernels is not None:
                steps = kernels.smacof_refine(
                    coords.reshape(-1, 3), frame_ptr,
                    edge_src, edge_dst, edge_delta, edge_ptr,
                    iterations=30, tol=1e-6, max_members=m,
                )
            else:
                # The numpy completion returns a new array, so stack still
                # holds the measured distances.
                mask = np.isfinite(stack)
                weights = mask.astype(float)
                weights[:, diag, diag] = 0.0
                coords, steps = smacof_refine_batch(
                    coords, np.where(mask, stack, 0.0), weights, iterations=30
                )
            batch.points[rows] = coords.reshape(-1, 3)
            batch.smacof_iterations[chunk] = steps
    return batch


def true_local_frame(
    graph: NetworkGraph, node: int, *, hops: int = DEFAULT_COLLECTION_HOPS
) -> LocalFrame:
    """Local frame built from ground-truth positions (no measurement step).

    Used when nodes are assumed to know their coordinates, the case where
    the paper says step (I) "can be skipped".
    """
    members, n_one_hop = _frame_members(graph, node, hops)
    coords = graph.positions[np.asarray(members, dtype=int)]
    return LocalFrame(
        node=node,
        members=members,
        coordinates=np.array(coords),
        n_one_hop=n_one_hop,
    )


def frame_distance_residual(graph: NetworkGraph, frame: LocalFrame) -> float:
    """RMS error between frame-implied and true pairwise distances.

    A diagnostic of localization quality: 0 for perfect ranging, growing
    with measurement error.  This is the deformation mechanism that turns
    boundary nodes into interior ones and vice versa (Sec. IV-B).
    """
    members = np.asarray(frame.members, dtype=int)
    true_pts = graph.positions[members]
    est_pts = np.asarray(frame.coordinates, dtype=float)
    m = len(members)
    if m < 2:
        return 0.0
    upper = np.triu_indices(m, k=1)
    true_d = np.linalg.norm(true_pts[:, None, :] - true_pts[None, :, :], axis=-1)
    est_d = np.linalg.norm(est_pts[:, None, :] - est_pts[None, :, :], axis=-1)
    diffs = est_d[upper] - true_d[upper]
    return float(np.sqrt(np.mean(np.square(diffs))))
