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

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.config import UBFConfig
from repro.geometry.ballfit import (
    BallFitArrays,
    BallFitResult,
    empty_ball_exists,
    empty_ball_exists_batch_arrays,
)
from repro.network.generator import Network
from repro.network.graph import NetworkGraph
from repro.network.localization import (
    DEFAULT_COLLECTION_HOPS,
    DEFAULT_ENGINE,
    FrameBatch,
    LocalFrame,
    build_frames,
    true_frames,
)
from repro.network.measurement import MeasuredDistances
from repro.observability.tracer import ensure_tracer

#: Where a frame's coordinates come from: the concrete localization modes
#: :meth:`repro.core.config.DetectorConfig.resolved_localization` returns.
FRAME_MODES = ("true", "mds")


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


@dataclass(eq=False)
class UBFOutcomes:
    """The UBF outcomes of ``k`` nodes as arrays, one per
    :class:`UBFNodeOutcome` field (``is_candidate`` bool, the rest int64).

    ``len``, integer indexing and iteration yield :class:`UBFNodeOutcome`
    views; two batches are equal when every array is.
    """

    node: np.ndarray
    is_candidate: np.ndarray
    balls_tested: np.ndarray
    neighborhood_size: np.ndarray
    points_checked: np.ndarray

    def __len__(self) -> int:
        return len(self.node)

    def __getitem__(self, i: int) -> UBFNodeOutcome:
        return UBFNodeOutcome(*(column[i].item() for column in vars(self).values()))

    def __iter__(self) -> Iterator[UBFNodeOutcome]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        return isinstance(other, UBFOutcomes) and all(
            np.array_equal(a, b)
            for a, b in zip(vars(self).values(), vars(other).values())
        )

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[UBFNodeOutcome]) -> "UBFOutcomes":
        """Pack per-node outcomes in order."""
        outcomes = list(outcomes)
        return cls(
            **{
                f.name: np.array(
                    [getattr(o, f.name) for o in outcomes],
                    dtype=bool if f.name == "is_candidate" else np.int64,
                )
                for f in fields(cls)
            }
        )


def _as_outcomes(outcomes: Iterable[UBFNodeOutcome]) -> UBFOutcomes:
    """``outcomes`` as a :class:`UBFOutcomes` (packing a per-node list)."""
    if isinstance(outcomes, UBFOutcomes):
        return outcomes
    return UBFOutcomes.from_outcomes(outcomes)


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


def localize_frames(
    graph: NetworkGraph,
    measured: Optional[MeasuredDistances],
    node_ids: Sequence[int],
    *,
    mode: str,
    hops: int = DEFAULT_COLLECTION_HOPS,
    engine: str = DEFAULT_ENGINE,
) -> FrameBatch:
    """Step (I) for ``node_ids`` as one batch, by ``mode`` (one of
    :data:`FRAME_MODES`; ``engine`` applies to ``"mds"``)."""
    if mode == "true":
        return true_frames(graph, node_ids, hops=hops)
    if mode == "mds":
        return build_frames(graph, measured, hops=hops, engine=engine, nodes=node_ids)
    raise ValueError(f"mode must be one of {FRAME_MODES}, got {mode!r}")


def search_frames(
    frames: FrameBatch, radius: float, *, find_first: bool = True
) -> BallFitArrays:
    """The UBF emptiness search over a whole frame batch, in one call.

    Reads each frame as :func:`ubf_classify_frame` does (origin row,
    one-hop rows as pair candidates when there are at least two, every
    row as a probe), straight from the batch's point table and row index:
    frame ``i``'s probes are rows ``ptr[i] .. ptr[i + 1]`` and its pairs
    rows ``ptr[i] + 1 .. ptr[i] + 1 + n_one_hop[i]``.  No coordinate is
    copied.
    """
    starts = frames.ptr[:-1]
    return empty_ball_exists_batch_arrays(
        frames.points,
        frames.rows,
        starts + 1,
        np.where(frames.n_one_hop >= 2, frames.n_one_hop, 0),
        starts,
        np.diff(frames.ptr),
        radius,
        find_first=find_first,
    )


def run_ubf(
    network: Network,
    config: UBFConfig = UBFConfig(),
    *,
    measured: Optional[MeasuredDistances] = None,
    localization: str = "true",
    find_first: bool = True,
    nodes: Optional[Sequence[int]] = None,
    frames: Optional[FrameBatch] = None,
    tracer=None,
) -> UBFOutcomes:
    """Phase 1 over the whole network.

    Parameters
    ----------
    network:
        The deployed network.
    config:
        Ball radius parameters.
    measured:
        One-hop distance measurements; required when ``localization`` is
        ``"mds"``.
    localization:
        ``"true"`` evaluates UBF on ground-truth coordinates (nodes know
        their positions); ``"mds"`` builds each node's frame from the
        measured distances first -- the paper's full pipeline.
    find_first:
        Stop each node's search at its first empty ball (Algorithm 1's
        break).  Benches pass False to count the full candidate set.
    nodes:
        Node IDs to localize and test, in this order; all nodes when
        None.  Only without ``frames``: a node's test reads only its own
        local frame, so any subset is sound.
    frames:
        Precomputed local frames (e.g. from
        :func:`repro.core.parallel.run_frames_parallel`), classified in
        the batch's own order; passing ``nodes`` as well raises
        ``ValueError``.  When given, frame construction is skipped and
        ``measured``/``localization`` only label the run -- the pipeline
        computes frames once in its localization stage and classifies
        them here.
    tracer:
        Optional :class:`repro.observability.Tracer`; when given, the run
        is wrapped in a ``ubf`` span carrying the Theorem-1 work
        counters.  The default no-op tracer adds no per-node work.

    Returns
    -------
    UBFOutcomes, ordered as ``nodes`` or ``frames`` (node-ID order by
    default).
    """
    if localization not in FRAME_MODES:
        raise ValueError("localization must be 'true' or 'mds'")
    if localization == "mds" and measured is None and frames is None:
        raise ValueError(f"localization={localization!r} requires measured distances")
    if frames is not None and nodes is not None:
        raise ValueError("pass nodes or frames, not both")

    tracer = ensure_tracer(tracer)
    graph = network.graph
    node_ids = range(graph.n_nodes) if nodes is None else [int(n) for n in nodes]
    n_nodes = len(node_ids) if frames is None else len(frames)
    with tracer.span("ubf", n_nodes=n_nodes, localization=localization) as span:
        if frames is None:
            frames = localize_frames(
                graph, measured, node_ids,
                mode=localization, hops=config.collection_hops,
            )
        search = search_frames(frames, config.radius, find_first=find_first)
        outcomes = UBFOutcomes(
            node=frames.nodes.copy(),
            is_candidate=search.is_boundary,
            balls_tested=search.balls_tested,
            neighborhood_size=np.diff(frames.ptr) - 1,
            points_checked=search.points_checked,
        )
        if tracer.enabled:
            span.set_many(ubf_span_counters(outcomes))
    return outcomes


def candidates_from_outcomes(outcomes: Iterable[UBFNodeOutcome]) -> set:
    """Set of UBF-positive node IDs."""
    outcomes = _as_outcomes(outcomes)
    return set(outcomes.node[outcomes.is_candidate].tolist())


def ubf_span_counters(outcomes: Iterable[UBFNodeOutcome]) -> Dict[str, int]:
    """Deterministic span counters summarizing a batch of UBF outcomes.

    Set on :func:`run_ubf`'s ``ubf`` span -- the values depend only on the
    outcomes, never on timing.
    """
    outcomes = _as_outcomes(outcomes)
    return {
        "n_candidates": int(outcomes.is_candidate.sum()),
        "balls_tested": int(outcomes.balls_tested.sum()),
        "points_checked": int(outcomes.points_checked.sum()),
    }
