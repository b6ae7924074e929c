"""End-to-end boundary detection: localization -> UBF -> IFF -> grouping."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional, Set

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.grouping import group_boundary_nodes
from repro.core.iff import run_iff
from repro.core.parallel import frame_span_counters, run_frames_parallel
from repro.core.ubf import UBFOutcomes, candidates_from_outcomes, run_ubf
from repro.network.generator import Network
from repro.network.measurement import (
    MeasuredDistances,
    NoError,
    measure_distances,
)
from repro.observability.tracer import config_snapshot, ensure_tracer

logger = logging.getLogger(__name__)


@dataclass
class BoundaryDetectionResult:
    """Everything the detection pipeline produced.

    Attributes
    ----------
    candidates:
        UBF-positive node IDs (Phase 1 output).
    boundary:
        Node IDs surviving IFF (the final detected boundary set).
    groups:
        Boundary nodes partitioned per boundary surface, largest first.
    ubf_outcomes:
        Per-node UBF observables (ball counts etc.) as one
        :class:`~repro.core.ubf.UBFOutcomes`, indexed by node ID.
    localization_used:
        ``"true"`` or ``"mds"`` -- which coordinate source UBF consumed
        (every concrete mode
        :meth:`repro.core.config.DetectorConfig.resolved_localization`
        can return).
    """

    candidates: Set[int]
    boundary: Set[int]
    groups: List[List[int]]
    ubf_outcomes: UBFOutcomes = field(
        repr=False, default_factory=lambda: UBFOutcomes.from_outcomes([])
    )
    localization_used: str = "true"

    @property
    def n_found(self) -> int:
        """Number of detected boundary nodes."""
        return len(self.boundary)

    def boundary_mask(self, n_nodes: int) -> np.ndarray:
        """Boolean detection mask over ``n_nodes`` node IDs.

        Raises
        ------
        ValueError
            When any boundary node ID falls outside ``[0, n_nodes)`` --
            the usual cause is passing the node count of a *different*
            network than the one this result was detected on.
        """
        mask = np.zeros(n_nodes, dtype=bool)
        if self.boundary:
            ids = sorted(self.boundary)
            if ids[0] < 0 or ids[-1] >= n_nodes:
                bad = ids[0] if ids[0] < 0 else ids[-1]
                raise ValueError(
                    f"boundary node id {bad} is outside [0, {n_nodes}); "
                    "boundary_mask(n_nodes) must be called with the node "
                    "count of the network this result was detected on"
                )
            mask[ids] = True
        return mask


class BoundaryDetector:
    """The paper's full localized boundary-detection pipeline.

    Usage::

        detector = BoundaryDetector()          # paper defaults
        result = detector.detect(network)      # perfect ranging
        # or, with a 30% distance measurement error:
        detector = BoundaryDetector(DetectorConfig(
            error_model=UniformAbsoluteError(0.3)))
        result = detector.detect(network, rng=np.random.default_rng(1))
    """

    def __init__(self, config: DetectorConfig = DetectorConfig()):
        self.config = config

    def detect(
        self,
        network: Network,
        *,
        measured: Optional[MeasuredDistances] = None,
        rng: Optional[np.random.Generator] = None,
        tracer=None,
    ) -> BoundaryDetectionResult:
        """Run localization, UBF, IFF, and grouping on ``network``.

        Parameters
        ----------
        network:
            The deployed network.
        measured:
            Pre-computed one-hop distance measurements.  When omitted and
            the config's localization resolves to ``"mds"``, measurements
            are generated with the config's error model and ``rng``.  When
            supplied but the mode resolves to ``"true"``, the measurements
            are *ignored* (UBF runs on ground-truth coordinates); a
            warning is logged and a ``measured_ignored`` trace event
            recorded so the mismatched configuration is visible.
        rng:
            Randomness source for measurement generation (defaults to a
            fresh seed-0 generator for reproducibility).
        tracer:
            Optional :class:`repro.observability.Tracer`.  When given, the
            run emits a ``detect`` root span (config snapshot, RNG seed
            provenance) with nested ``localization``, ``ubf``, ``iff``,
            and ``grouping`` stage spans.
        """
        tracer = ensure_tracer(tracer)
        mode = self.config.resolved_localization()
        with tracer.span(
            "detect",
            localization=mode,
            n_nodes=network.graph.n_nodes,
            config=config_snapshot(self.config) if tracer.enabled else None,
            rng="provided" if rng is not None else "default_seed_0",
        ) as root:
            if mode == "true" and measured is not None:
                message = (
                    "detect() received measured distances but localization "
                    "resolved to 'true'; the measurements are ignored -- "
                    "set DetectorConfig(localization='mds') to consume them"
                )
                logger.warning(message)
                tracer.event("measured_ignored", reason=message)
            engine = self.config.localization_config.engine
            with tracer.span("localization", mode=mode, engine=engine) as loc_span:
                generated = False
                if mode == "mds" and measured is None:
                    if rng is None:
                        rng = np.random.default_rng(0)
                    measured = measure_distances(
                        network.graph, self.config.error_model, rng
                    )
                    generated = True
                loc_span.set("measurements_generated", generated)
                # Step (I) once for every node, as one frame batch the UBF
                # stage below classifies instead of re-localizing per node.
                frames = run_frames_parallel(
                    network,
                    measured,
                    mode=mode,
                    hops=self.config.ubf.collection_hops,
                    engine=engine,
                    workers=self.config.workers,
                    tracer=tracer,
                )
                if tracer.enabled:
                    loc_span.set_many(frame_span_counters(frames))

            outcomes = run_ubf(
                network,
                self.config.ubf,
                measured=measured,
                localization=mode,
                frames=frames,
                tracer=tracer,
            )
            candidates = candidates_from_outcomes(outcomes)
            boundary = run_iff(
                network.graph, candidates, self.config.iff, tracer=tracer
            )
            with tracer.span("grouping", n_boundary=len(boundary)) as grp_span:
                groups = group_boundary_nodes(network.graph, boundary)
                if tracer.enabled:
                    grp_span.set("n_groups", len(groups))
                    grp_span.set(
                        "group_sizes", [len(g) for g in groups[:32]]
                    )
            if tracer.enabled:
                root.set("n_candidates", len(candidates))
                root.set("n_boundary", len(boundary))
                root.set("n_groups", len(groups))
        return BoundaryDetectionResult(
            candidates=candidates,
            boundary=boundary,
            groups=groups,
            ubf_outcomes=outcomes,
            localization_used=mode,
        )


def detect_boundary(
    network: Network,
    config: DetectorConfig = DetectorConfig(),
    *,
    measured: Optional[MeasuredDistances] = None,
    rng: Optional[np.random.Generator] = None,
    tracer=None,
) -> BoundaryDetectionResult:
    """Functional one-shot form of :class:`BoundaryDetector`."""
    return BoundaryDetector(config).detect(
        network, measured=measured, rng=rng, tracer=tracer
    )
