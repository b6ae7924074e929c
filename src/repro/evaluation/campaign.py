"""Declarative experiment campaigns: spec, cell cross-product, executors.

The paper's evidence is a family of multi-cell sweeps (Figs. 6-10 and the
error sweeps of Figs. 1(g-i) and 11), each previously hand-rolled as its
own driver invocation.  A :class:`CampaignSpec` describes one such sweep
declaratively -- scenario x seed x config-variant axes crossed with a
measurement-error axis (``kind="error_sweep"``, the only kind so far) --
and :func:`expand` turns it into an ordered list of :class:`CampaignCell`
values.

Each cell is a *pure function of its parameters*: :func:`execute_cell`
maps ``(kind, params)`` to a JSON document, drawing randomness only from
the identity-derived substreams of :mod:`repro.evaluation.seeding`.  That
purity is what the campaign manager in :mod:`repro.service.campaign`
exploits -- cells become content-addressed jobs in the durable job store,
so re-running a campaign only computes missing cells, and an interrupted
campaign resumes exactly where it stopped.

This module deliberately knows nothing about the job service (layering:
``evaluation`` sits below ``service``); it owns the spec schema, the cell
semantics, and the aggregation of per-cell result documents back into the
paper-shaped ASCII tables of :mod:`repro.evaluation.reporting`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import DetectorConfig, IFFConfig, UBFConfig
from repro.evaluation.experiments import ErrorSweepPoint, run_error_cell
from repro.evaluation.metrics import DetectionStats
from repro.evaluation.reporting import (
    render_error_sweep_counts,
    render_mistaken_distribution,
    render_missing_distribution,
)
from repro.network.generator import DeploymentConfig, generate_network
from repro.observability.tracer import ensure_tracer
from repro.shapes.library import scenario_by_name

CAMPAIGN_FORMAT_VERSION = 1

#: Job kinds the campaign manager submits (``JobSpec.kind`` values).
CELL_KIND_ERROR = "eval.error_cell"

#: Campaign kinds (spec-level).
KIND_ERROR_SWEEP = "error_sweep"
CAMPAIGN_KINDS = (KIND_ERROR_SWEEP,)

#: Detector knobs a config variant may override.
VARIANT_KEYS = ("epsilon", "theta", "ttl")

_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative experiment campaign (the committed JSON schema).

    Axes: ``scenarios`` x ``seeds`` x ``variants`` crossed with the error
    sweep's ``levels``.  The ``seed`` axis value seeds *both* the
    deployment (network generation) and the per-cell substreams, so each
    seed is a fully independent replication.

    ``variants`` is the config-variant axis: each entry is a mapping with
    a unique ``name`` plus overrides drawn from :data:`VARIANT_KEYS`.
    ``output`` names the ``results/`` table this campaign regenerates
    (resolved by the CLI, relative to the working directory).
    """

    name: str
    kind: str
    scenarios: Tuple[str, ...] = ("sphere",)
    seeds: Tuple[int, ...] = (0,)
    n_surface: int = 150
    n_interior: int = 250
    target_degree: float = 14.0
    epsilon: float = 1e-3
    theta: int = 20
    ttl: int = 3
    variants: Tuple[Mapping[str, Any], ...] = ()
    levels: Tuple[float, ...] = ()
    output: Optional[str] = None

    def __post_init__(self):
        for attr in ("scenarios", "seeds", "variants", "levels"):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))
        if not self.name or not set(self.name) <= _NAME_CHARS:
            raise ValueError(
                f"campaign name {self.name!r} must be non-empty and use only "
                "[A-Za-z0-9._-]"
            )
        if self.kind not in CAMPAIGN_KINDS:
            raise ValueError(
                f"unknown campaign kind {self.kind!r} (expected one of "
                f"{CAMPAIGN_KINDS})"
            )
        if not self.scenarios:
            raise ValueError("campaign needs at least one scenario")
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        if not self.levels:
            raise ValueError("error_sweep campaign needs non-empty levels")
        seen = set()
        for variant in self.variants:
            vname = variant.get("name")
            if not isinstance(vname, str) or not vname:
                raise ValueError(f"variant {variant!r} needs a non-empty 'name'")
            if vname in seen:
                raise ValueError(f"duplicate variant name {vname!r}")
            seen.add(vname)
            unknown = sorted(set(variant) - {"name"} - set(VARIANT_KEYS))
            if unknown:
                raise ValueError(
                    f"variant {vname!r} overrides unknown keys {unknown} "
                    f"(allowed: {list(VARIANT_KEYS)})"
                )

    def as_dict(self) -> Dict[str, Any]:
        doc = dataclasses.asdict(self)
        doc["format_version"] = CAMPAIGN_FORMAT_VERSION
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "CampaignSpec":
        doc = dict(doc)
        version = doc.pop("format_version", CAMPAIGN_FORMAT_VERSION)
        if version != CAMPAIGN_FORMAT_VERSION:
            raise ValueError(
                f"unsupported campaign format version {version!r} "
                f"(expected {CAMPAIGN_FORMAT_VERSION})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown campaign spec keys {unknown}")
        return cls(**doc)

    def spec_hash(self) -> str:
        """SHA-256 over the sorted-keys JSON of the full spec."""
        payload = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def effective_variants(self) -> Tuple[Dict[str, Any], ...]:
        """The variant axis, defaulting to a single ``default`` variant."""
        if not self.variants:
            return ({"name": "default"},)
        return tuple(dict(v) for v in self.variants)


def load_spec(path) -> CampaignSpec:
    """Read a committed campaign spec JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: campaign spec must be a JSON object")
    return CampaignSpec.from_dict(doc)


@dataclass(frozen=True)
class CampaignCell:
    """One cell of the expanded cross-product.

    ``axes`` carries the human-facing slice labels (scenario, seed,
    variant, and the kind-specific axis values) used by status displays
    and aggregation; ``params`` is the full executable payload handed to
    :func:`execute_cell` (and stored as ``JobSpec.cell``, where it
    defines the cell's cache identity).
    """

    index: int
    kind: str
    axes: Dict[str, Any] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)


def _variant_value(spec: CampaignSpec, variant: Mapping[str, Any], key: str) -> Any:
    return variant.get(key, getattr(spec, key))


def expand(spec: CampaignSpec) -> List[CampaignCell]:
    """The ordered cell cross-product of ``spec``.

    Order is slice-major (scenario, seed, variant) then ``levels``.
    Rendering and status both rely on this order being deterministic.
    """
    cells: List[CampaignCell] = []
    for scenario in spec.scenarios:
        for seed in spec.seeds:
            for variant in spec.effective_variants():
                base_axes = {
                    "scenario": scenario,
                    "seed": int(seed),
                    "variant": variant["name"],
                }
                base_params = {
                    "scenario": scenario,
                    "n_surface": int(spec.n_surface),
                    "n_interior": int(spec.n_interior),
                    "target_degree": float(spec.target_degree),
                    "seed": int(seed),
                    "epsilon": float(_variant_value(spec, variant, "epsilon")),
                    "theta": int(_variant_value(spec, variant, "theta")),
                    "ttl": int(_variant_value(spec, variant, "ttl")),
                }
                for level in spec.levels:
                    cells.append(
                        CampaignCell(
                            index=len(cells),
                            kind=CELL_KIND_ERROR,
                            axes={**base_axes, "level": float(level)},
                            params={**base_params, "level": float(level)},
                        )
                    )
    return cells


# -- cell execution --------------------------------------------------------


def _cell_deployment(params: Mapping[str, Any]) -> DeploymentConfig:
    return DeploymentConfig(
        n_surface=params["n_surface"],
        n_interior=params["n_interior"],
        target_degree=params["target_degree"],
        seed=params["seed"],
    )


def _cell_detector(params: Mapping[str, Any]) -> DetectorConfig:
    return DetectorConfig(
        ubf=UBFConfig(epsilon=params["epsilon"]),
        iff=IFFConfig(theta=params["theta"], ttl=params["ttl"]),
    )


def _cell_network(params: Mapping[str, Any]):
    return generate_network(
        scenario_by_name(params["scenario"]),
        _cell_deployment(params),
        scenario=params["scenario"],
    )


def execute_cell(
    kind: str, params: Mapping[str, Any], *, tracer=None
) -> Dict[str, Any]:
    """Run one campaign cell; returns its JSON result document.

    The document round-trips through :func:`error_point_from_doc` back
    into the dataclass the existing renderers consume.  Execution is
    deterministic: equal ``(kind, params)`` always produce byte-identical
    documents (the substreams are identity-derived), which is the contract
    the job store's result cache keys on.
    """
    if params is None:
        raise ValueError(f"cell job of kind {kind!r} has no cell parameters")
    tracer = ensure_tracer(tracer)
    if kind == CELL_KIND_ERROR:
        with tracer.span(
            "campaign.cell",
            kind=kind,
            scenario=params["scenario"],
            level=params["level"],
        ):
            network = _cell_network(params)
            point = run_error_cell(
                network,
                params["level"],
                detector_config=_cell_detector(params),
                seed=params["seed"],
            )
        return error_point_doc(point)
    raise ValueError(f"unknown campaign cell kind {kind!r}")


# -- result documents ------------------------------------------------------


def error_point_doc(point: ErrorSweepPoint) -> Dict[str, Any]:
    """JSON document of one error-sweep cell result."""
    return {
        "type": "error_point",
        "level": point.level,
        "stats": dataclasses.asdict(point.stats),
        "mistaken_hops": {str(k): point.mistaken_hops[k] for k in sorted(point.mistaken_hops)},
        "missing_hops": {str(k): point.missing_hops[k] for k in sorted(point.missing_hops)},
    }


def error_point_from_doc(doc: Mapping[str, Any]) -> ErrorSweepPoint:
    """Inverse of :func:`error_point_doc`."""
    return ErrorSweepPoint(
        level=doc["level"],
        stats=DetectionStats(**doc["stats"]),
        mistaken_hops={int(k): v for k, v in doc["mistaken_hops"].items()},
        missing_hops={int(k): v for k, v in doc["missing_hops"].items()},
    )


# -- aggregation -----------------------------------------------------------


def _slice_key(cell: CampaignCell) -> Tuple[Any, ...]:
    return (cell.axes["scenario"], cell.axes["seed"], cell.axes["variant"])


def render_campaign_tables(
    spec: CampaignSpec, results: Sequence[Optional[Mapping[str, Any]]]
) -> str:
    """Aggregate per-cell result documents into the campaign's tables.

    ``results`` must align with :func:`expand`'s cell order (one document
    per cell; ``None`` marks a missing cell and raises).
    """
    cells = expand(spec)
    if len(results) != len(cells):
        raise ValueError(
            f"campaign {spec.name!r}: got {len(results)} results for "
            f"{len(cells)} cells"
        )
    missing = [cell.index for cell, doc in zip(cells, results) if doc is None]
    if missing:
        raise ValueError(
            f"campaign {spec.name!r}: missing results for cells {missing}"
        )
    paired = list(zip(cells, results))
    slice_keys = []
    for cell in cells:
        key = _slice_key(cell)
        if key not in slice_keys:
            slice_keys.append(key)
    multi = len(slice_keys) > 1

    sections: List[str] = []
    for key, group_iter in groupby(paired, key=lambda cr: _slice_key(cr[0])):
        group = list(group_iter)
        if multi:
            scenario, seed, variant = key
            sections.append(
                f"=== scenario={scenario} seed={seed} variant={variant} ==="
            )
        points = [error_point_from_doc(doc) for _, doc in group]
        sections.append(
            "[Fig. 1(g)] boundary node counts vs distance measurement error\n"
            + render_error_sweep_counts(points)
        )
        sections.append(
            "[Fig. 1(h)] mistaken boundary node hop distribution\n"
            + render_mistaken_distribution(points)
        )
        sections.append(
            "[Fig. 1(i)] missing boundary node hop distribution\n"
            + render_missing_distribution(points)
        )
    return "\n\n".join(sections) + "\n"
