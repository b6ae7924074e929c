"""Unit Ball Fitting (UBF) -- Algorithm 1 of the paper.

Each node, using only its one-hop neighborhood in its own local coordinate
frame, enumerates the candidate balls of radius ``r = 1 + eps`` through
itself and every pair of neighbors (Eq. 1 yields zero, one or two centers
per pair) and declares itself a boundary node as soon as an *empty* ball is
found -- one with no neighborhood node strictly inside.  Lemma 1 proves the
pair enumeration is exhaustive; Theorem 1 bounds the per-node work at
``Theta(rho^2)`` balls times ``Theta(rho)`` point checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import UBFConfig
from repro.geometry import ballfit
from repro.geometry.ballfit import (
    BallFitResult,
    empty_ball_exists,
    empty_ball_exists_batch,
    search_bytes,
)
from repro.network.generator import Network
from repro.network.localization import (
    LocalFrame,
    establish_local_frame,
    true_local_frame,
)
from repro.network.measurement import MeasuredDistances
from repro.observability.tracer import ensure_tracer


@dataclass
class UBFNodeOutcome:
    """Per-node UBF outcome with the observables Theorem 1 talks about.

    Attributes
    ----------
    node:
        Node ID.
    is_candidate:
        True when the node found an empty candidate ball (Phase-1 positive).
    balls_tested:
        Candidate balls examined before the search stopped.
    neighborhood_size:
        ``|N(node)| - 1``, the node's degree when the test ran.
    points_checked:
        Point probes performed across the tested balls (per-ball early
        exit); the Theta(rho^3) observable of Theorem 1.
    """

    node: int
    is_candidate: bool
    balls_tested: int
    neighborhood_size: int
    points_checked: int = 0


def ubf_classify_frame(
    frame: LocalFrame,
    radius: float,
    *,
    find_first: bool = True,
    kernel: str = "batched",
) -> BallFitResult:
    """Run the UBF emptiness search inside one node's local frame.

    This is the node-level primitive: the frame contains everything the
    node knows (its own embedded position, its one-hop neighbors as pair
    candidates, and its full collection as the emptiness-check set), so the
    call is localized by construction.  ``kernel`` selects the batched
    production kernel (default) or the ``"naive"`` oracle; both yield
    identical results.
    """
    return empty_ball_exists(
        frame.origin_coordinates,
        frame.neighbor_coordinates,
        radius,
        check_points=frame.collection_coordinates,
        find_first=find_first,
        kernel=kernel,
    )


def run_ubf(
    network: Network,
    config: UBFConfig = UBFConfig(),
    *,
    measured: Optional[MeasuredDistances] = None,
    localization: str = "true",
    find_first: bool = True,
    nodes: Optional[Sequence[int]] = None,
    frames: Optional[Dict[int, LocalFrame]] = None,
    tracer=None,
) -> List[UBFNodeOutcome]:
    """Phase 1 over the whole network.

    Parameters
    ----------
    network:
        The deployed network.
    config:
        Ball radius parameters.
    measured:
        One-hop distance measurements; required when ``localization`` is
        ``"mds"`` or ``"trilateration"``.
    localization:
        ``"true"`` evaluates UBF on ground-truth coordinates (nodes know
        their positions); ``"mds"`` builds each node's frame from the
        measured distances first -- the paper's full pipeline;
        ``"trilateration"`` uses incremental multilateration instead of
        MDS (the alternative localization family the paper cites).
    find_first:
        Stop each node's search at its first empty ball (Algorithm 1's
        break).  Benches pass False to count the full candidate set.
    nodes:
        Node IDs to test; all nodes when None.  The shard driver in
        :mod:`repro.core.parallel` passes each worker's slice here, which
        is sound because every node's test reads only its own local frame.
    frames:
        Precomputed local frames keyed by node ID (e.g. from
        :func:`repro.core.parallel.run_frames_parallel`).  When given,
        the per-node frame construction is skipped entirely and
        ``measured``/``localization`` only label the run -- the pipeline
        computes frames once in its localization stage and reuses them
        here instead of rebuilding one per node.
    tracer:
        Optional :class:`repro.observability.Tracer`; when given, the run
        is wrapped in a ``ubf.run`` span carrying the Theorem-1 work
        counters.  The default no-op tracer adds no per-node work.

    Returns
    -------
    list of UBFNodeOutcome, ordered as ``nodes`` (node-ID order by default).
    """
    if localization not in ("true", "mds", "trilateration"):
        raise ValueError("localization must be 'true', 'mds', or 'trilateration'")
    if (
        localization in ("mds", "trilateration")
        and measured is None
        and frames is None
    ):
        raise ValueError(f"localization={localization!r} requires measured distances")

    tracer = ensure_tracer(tracer)
    node_ids = range(network.graph.n_nodes) if nodes is None else [int(n) for n in nodes]
    with tracer.span(
        "ubf.run", n_nodes=len(node_ids), localization=localization
    ) as span:
        outcomes = _run_ubf_nodes(
            network, config, node_ids,
            measured=measured, localization=localization, find_first=find_first,
            frames=frames,
        )
        if tracer.enabled:
            span.set_many(ubf_span_counters(outcomes))
    return outcomes


def _run_ubf_nodes(
    network: Network,
    config: UBFConfig,
    node_ids,
    *,
    measured: Optional[MeasuredDistances],
    localization: str,
    find_first: bool,
    frames: Optional[Dict[int, LocalFrame]] = None,
) -> List[UBFNodeOutcome]:
    """The untraced classification behind :func:`run_ubf`.

    Frames are built (or looked up) one node at a time and classified in
    slabs through :func:`repro.geometry.ballfit.empty_ball_exists_batch`;
    a slab closes once its :func:`~repro.geometry.ballfit.search_bytes`
    reach :data:`~repro.geometry.ballfit.UBF_WORKING_SET_BYTES`, so the
    frames and flattened arrays held at once stay flat in the network
    size.  Outcomes are per node and independent of the slicing.
    """
    graph = network.graph
    hops = config.collection_hops

    def frame_of(node: int) -> LocalFrame:
        if frames is not None:
            return frames[node]
        if localization == "mds":
            return establish_local_frame(graph, measured, node, hops=hops)
        if localization == "trilateration":
            from repro.network.trilateration import trilateration_local_frame

            return trilateration_local_frame(graph, measured, node, hops=hops)
        return true_local_frame(graph, node, hops=hops)

    outcomes: List[UBFNodeOutcome] = []
    slab: List[Tuple[int, LocalFrame]] = []
    slab_bytes = 0
    for node in node_ids:
        frame = frame_of(node)
        slab.append((node, frame))
        slab_bytes += search_bytes(frame.n_one_hop, len(frame.members))
        if slab_bytes >= ballfit.UBF_WORKING_SET_BYTES:
            outcomes.extend(_classify_slab(slab, config.radius, find_first))
            slab, slab_bytes = [], 0
    outcomes.extend(_classify_slab(slab, config.radius, find_first))
    return outcomes


def _classify_slab(
    slab: List[Tuple[int, LocalFrame]], radius: float, find_first: bool
) -> List[UBFNodeOutcome]:
    """One batched kernel call over a slab of ``(node, frame)`` pairs."""
    if not slab:
        return []
    frames = [frame for _, frame in slab]
    fits = empty_ball_exists_batch(
        np.stack([f.origin_coordinates for f in frames]),
        [f.neighbor_coordinates for f in frames],
        radius,
        check_sets=[f.collection_coordinates for f in frames],
        find_first=find_first,
    )
    return [
        UBFNodeOutcome(
            node=node,
            is_candidate=fit.is_boundary,
            balls_tested=fit.balls_tested,
            neighborhood_size=len(frame.members) - 1,
            points_checked=fit.points_checked,
        )
        for (node, frame), fit in zip(slab, fits)
    ]


def candidates_from_outcomes(outcomes: List[UBFNodeOutcome]) -> set:
    """Set of UBF-positive node IDs."""
    return {o.node for o in outcomes if o.is_candidate}


def ubf_span_counters(outcomes: List[UBFNodeOutcome]) -> Dict[str, int]:
    """Deterministic span counters summarizing a batch of UBF outcomes.

    Shared by :func:`run_ubf`'s ``ubf.run`` span and the per-shard spans of
    :mod:`repro.core.parallel` -- the values depend only on the outcomes,
    never on sharding or timing.
    """
    return {
        "n_candidates": sum(1 for o in outcomes if o.is_candidate),
        "balls_tested": sum(o.balls_tested for o in outcomes),
        "points_checked": sum(o.points_checked for o in outcomes),
    }


def balls_tested_profile(outcomes: List[UBFNodeOutcome]) -> Dict[str, float]:
    """Aggregate ball-testing statistics (Theorem 1 observables)."""
    tested = np.array([o.balls_tested for o in outcomes], dtype=float)
    checked = np.array([o.points_checked for o in outcomes], dtype=float)
    degrees = np.array([o.neighborhood_size for o in outcomes], dtype=float)
    return {
        "mean_balls_tested": float(tested.mean()) if tested.size else 0.0,
        "max_balls_tested": float(tested.max()) if tested.size else 0.0,
        "mean_points_checked": float(checked.mean()) if checked.size else 0.0,
        "max_points_checked": float(checked.max()) if checked.size else 0.0,
        "mean_degree": float(degrees.mean()) if degrees.size else 0.0,
    }
