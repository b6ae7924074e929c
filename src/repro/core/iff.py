"""Isolated Fragment Filtering (IFF) -- Phase 2 of boundary detection.

UBF occasionally mislabels interior nodes (noisy coordinates, random
low-density pockets), producing small isolated fragments.  Real boundaries
form large well-connected closed surfaces, so each candidate floods a
packet with TTL ``T`` that only other candidates forward; a candidate that
hears fewer than ``theta`` flooding packets demotes itself.

The reference implementation below computes the *result* of that protocol
directly: a node receives exactly one flood per candidate within ``T`` hops
of it in the candidate-induced subgraph, so counting those candidates
(self included) reproduces the protocol outcome.  The message-level version
lives in :mod:`repro.runtime.protocols.flooding` and is pinned equivalent
by the integration tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

import numpy as np

from repro.core.config import IFFConfig
from repro.geometry.native import load_kernels
from repro.network.graph import NetworkGraph, hop_bounded_sweep
from repro.observability.tracer import ensure_tracer

def iff_fragment_sizes(
    graph: NetworkGraph,
    candidates: Set[int],
    ttl: int,
) -> Dict[int, int]:
    """Per-candidate count of candidates within ``ttl`` hops (self included).

    The BFS runs on the subgraph induced by ``candidates`` only: flooding
    packets "will be forwarded by other boundary nodes but not non-boundary
    nodes".

    All candidates flood together.  With native kernels the counts are
    one count-only pass of the hop-bounded BFS
    (:meth:`~repro.geometry.native.NativeKernels.hop_bfs`, masked to the
    candidates, ``ttl`` hops); without them they are the row lengths of
    one :func:`repro.network.graph.hop_bounded_sweep` at ``ttl`` over the
    candidate-induced block of the graph's ``(A + I)`` operator, the
    kernel's differential twin.  Either way the work is O(k * rho^ttl)
    for k candidates.  The per-candidate dict BFS
    (:func:`iff_fragment_sizes_bfs`) is kept as the differential oracle.
    """
    cand = np.asarray(sorted(int(c) for c in candidates), dtype=np.int64)
    if cand.size == 0:
        return {}
    kernels = load_kernels()
    if kernels is not None:
        mask = np.zeros(graph.n_nodes, dtype=np.uint8)
        mask[cand] = 1
        ptr, _, _ = kernels.hop_bfs(
            *graph.csr(), cand, max(ttl, 0), mask=mask, fill=False
        )
    else:
        induced = graph.reach_operator()[cand][:, cand]
        ptr, _, _ = hop_bounded_sweep(induced, ttl, np.arange(cand.size))
    return dict(zip(cand.tolist(), np.diff(ptr).tolist()))


def iff_fragment_sizes_bfs(
    graph: NetworkGraph,
    candidates: Set[int],
    ttl: int,
) -> Dict[int, int]:
    """Per-candidate dict-BFS twin of :func:`iff_fragment_sizes`.

    One ``bfs_hops`` call per candidate on the induced subgraph -- the
    straightforward transcription of the flooding protocol, kept as the
    differential oracle for the native BFS and the sparse sweep.
    """
    sizes: Dict[int, int] = {}
    for node in candidates:
        reached = graph.bfs_hops([node], within=candidates, max_hops=ttl)
        sizes[node] = len(reached)
    return sizes


def run_iff(
    graph: NetworkGraph,
    candidates: Iterable[int],
    config: IFFConfig = IFFConfig(),
    *,
    tracer=None,
) -> Set[int]:
    """Filter UBF candidates, keeping nodes in fragments of size >= theta.

    Parameters
    ----------
    graph:
        Full network connectivity (used only within the candidate set).
    candidates:
        UBF-positive node IDs.
    config:
        ``theta`` (minimum flood count) and ``ttl`` (flood TTL).  With
        ``enabled=False`` the candidate set passes through unchanged.
    tracer:
        Optional :class:`repro.observability.Tracer`; wraps the filter in
        an ``iff`` span recording the kept/demoted counts and the flood
        count distribution.

    Returns
    -------
    set of node IDs surviving the filter.
    """
    tracer = ensure_tracer(tracer)
    candidate_set = set(int(c) for c in candidates)
    with tracer.span(
        "iff",
        theta=config.theta,
        ttl=config.ttl,
        enabled=config.enabled,
        n_candidates=len(candidate_set),
    ) as span:
        if not config.enabled:
            span.set("n_kept", len(candidate_set))
            span.set("n_demoted", 0)
            return candidate_set
        sizes = iff_fragment_sizes(graph, candidate_set, config.ttl)
        kept = {node for node, size in sizes.items() if size >= config.theta}
        if tracer.enabled:
            span.set("n_kept", len(kept))
            span.set("n_demoted", len(candidate_set) - len(kept))
            if sizes:
                counts = sorted(sizes.values())
                span.set("flood_count_min", counts[0])
                span.set("flood_count_max", counts[-1])
                span.set("flood_count_mean", sum(counts) / len(counts))
    return kept
