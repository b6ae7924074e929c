"""Configuration dataclasses for the boundary-detection pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.network.localization import DEFAULT_ENGINE, ENGINES
from repro.network.measurement import DistanceErrorModel, NoError

#: Values ``DetectorConfig.localization`` accepts (see its docstring).
LOCALIZATION_MODES = ("auto", "mds", "true")


@dataclass(frozen=True)
class UBFConfig:
    """Unit Ball Fitting parameters (Sec. II-A).

    Attributes
    ----------
    epsilon:
        The "arbitrarily small constant" of Definition 4: candidate balls
        have radius ``r = 1 + epsilon`` with the radio range normalized
        to 1.  Larger values raise the minimum hole size the algorithm
        reacts to (Sec. II-A3's tunability knob); ``ball_radius`` overrides
        the derived radius directly when set.
    ball_radius:
        Explicit ball radius; when None, ``1 + epsilon`` is used.
    collection_hops:
        Radius (in hops) of the neighborhood each node collects and embeds
        before testing balls.  Candidate balls reach ``2r`` from the node
        and Lemma 1/Theorem 1 reason about all nodes within that distance,
        so the default is 2; setting 1 reproduces the most literal reading
        of Algorithm 1 and is kept for the ablation bench (it floods the
        interior with false positives at realistic densities).

    The emptiness search itself has no knobs: it always runs the batched
    kernel of :mod:`repro.geometry.ballfit` (the fused native kernel when
    it loads, the budgeted numpy fallback otherwise).
    """

    epsilon: float = 1e-3
    ball_radius: Optional[float] = None
    collection_hops: int = 2

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.ball_radius is not None and self.ball_radius <= 0:
            raise ValueError("ball_radius must be positive")
        if self.collection_hops < 1:
            raise ValueError("collection_hops must be at least 1")

    @property
    def radius(self) -> float:
        """Effective ball radius ``r``."""
        return self.ball_radius if self.ball_radius is not None else 1.0 + self.epsilon


@dataclass(frozen=True)
class LocalizationConfig:
    """Step (I) parameters: how local frames are constructed.

    Attributes
    ----------
    engine:
        Frame-construction engine for MDS localization: ``"sparse"``
        (default) builds every node's collection with one multi-source BFS
        sweep, groups equal-size frames, and runs completion, centering
        and edge-list SMACOF through native kernels when they load (numpy
        otherwise); ``"pernode"`` is the scalar per-node oracle it is
        differentially tested against (exact members and SMACOF step
        counts, coordinates within the documented float tolerance -- see
        :mod:`repro.network.localization`).
    """

    engine: str = DEFAULT_ENGINE

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")


@dataclass(frozen=True)
class IFFConfig:
    """Isolated Fragment Filtering parameters (Sec. II-B).

    The defaults come from the paper's icosahedron argument: the smallest
    hole has at least 20 boundary nodes with pairwise hop distance at most
    3, hence ``theta = 20`` and ``ttl = 3``.
    """

    theta: int = 20
    ttl: int = 3
    enabled: bool = True

    def __post_init__(self):
        if self.theta < 1:
            raise ValueError("theta must be at least 1")
        if self.ttl < 1:
            raise ValueError("ttl must be at least 1")


@dataclass(frozen=True)
class DetectorConfig:
    """Full pipeline configuration.

    Attributes
    ----------
    ubf, iff:
        Stage parameters.
    localization_config:
        Step (I) engine parameters (:class:`LocalizationConfig`); the
        concrete coordinate *source* is still selected by ``localization``
        below -- the engine only matters when that resolves to ``"mds"``.
    error_model:
        Ranging error model used when the caller does not supply measured
        distances; :class:`repro.network.measurement.NoError` by default.
    localization:
        ``"mds"`` -- establish local MDS frames from measured distances
        (the paper's default path);
        ``"true"`` -- nodes know their coordinates, step (I) skipped;
        ``"auto"`` -- ``"true"`` under :class:`NoError`, else ``"mds"``.
    workers:
        Worker processes for MDS frame construction.  ``1`` (default)
        runs in-process; larger values shard the nodes' frames across a
        process pool (each frame reads only its own collection) and merge
        deterministically -- results are byte-identical to the sequential
        path for any worker count.  True-coordinate frames, UBF, IFF and
        grouping always run in this process.
    """

    ubf: UBFConfig = field(default_factory=UBFConfig)
    iff: IFFConfig = field(default_factory=IFFConfig)
    localization_config: LocalizationConfig = field(
        default_factory=LocalizationConfig
    )
    error_model: DistanceErrorModel = field(default_factory=NoError)
    localization: str = "auto"
    workers: int = 1

    def __post_init__(self):
        if self.localization not in LOCALIZATION_MODES:
            raise ValueError(
                f"localization must be one of {LOCALIZATION_MODES}, "
                f"got {self.localization!r}"
            )
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def resolved_localization(self) -> str:
        """The concrete localization mode UBF will run with.

        Returns ``"mds"`` or ``"true"`` -- i.e. any accepted
        ``localization`` value except ``"auto"``, which resolves to
        ``"true"`` under :class:`NoError` and ``"mds"`` otherwise.
        """
        if self.localization != "auto":
            return self.localization
        return "true" if isinstance(self.error_model, NoError) else "mds"
