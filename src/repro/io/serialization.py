"""JSON serialization of networks and detection results.

The format is deliberately plain: a versioned JSON document with node
positions, adjacency, ground-truth flags, and metadata.  Everything needed
to re-run detection deterministically on another machine.

:func:`write_atomic` (tmp file + ``os.replace``) is the crash-safe write
primitive every artifact writer should use; it is implemented in
:mod:`repro.observability.export` (the bottom layer of the import DAG, so
the trace exporter and the evaluation layer can share it) and re-exported
here as its public home.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.pipeline import BoundaryDetectionResult
from repro.core.ubf import UBFOutcomes
from repro.network.generator import DeploymentConfig, Network
from repro.network.graph import NetworkGraph
from repro.observability.export import write_atomic

__all__ = [
    "FORMAT_VERSION",
    "load_detection_result",
    "load_network",
    "save_detection_result",
    "save_network",
    "write_atomic",
]

FORMAT_VERSION = 1

PathLike = Union[str, Path]


def save_network(network: Network, path: PathLike) -> None:
    """Write a network (positions, adjacency, truth labels) to JSON."""
    graph = network.graph
    doc = {
        "format_version": FORMAT_VERSION,
        "scenario": network.scenario,
        "scale": network.scale,
        "radio_range": graph.radio_range,
        "positions": graph.positions.tolist(),
        "adjacency": [graph.neighbors(i).tolist() for i in range(graph.n_nodes)],
        "truth_boundary": network.truth_boundary.astype(int).tolist(),
        "config": (
            {
                "n_surface": network.config.n_surface,
                "n_interior": network.config.n_interior,
                "target_degree": network.config.target_degree,
                "seed": network.config.seed,
                "quasi_udg_alpha": network.config.quasi_udg_alpha,
            }
            if network.config is not None
            else None
        ),
    }
    write_atomic(path, json.dumps(doc))


def load_network(path: PathLike) -> Network:
    """Read a network previously written by :func:`save_network`."""
    doc = json.loads(Path(path).read_text())
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported network format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    graph = NetworkGraph(
        np.asarray(doc["positions"], dtype=float),
        radio_range=float(doc["radio_range"]),
        adjacency=doc["adjacency"],
    )
    config = None
    if doc.get("config"):
        config = DeploymentConfig(
            n_surface=doc["config"]["n_surface"],
            n_interior=doc["config"]["n_interior"],
            target_degree=doc["config"]["target_degree"],
            seed=doc["config"]["seed"],
            quasi_udg_alpha=doc["config"].get("quasi_udg_alpha"),
        )
    return Network(
        graph=graph,
        truth_boundary=np.asarray(doc["truth_boundary"], dtype=bool),
        scenario=doc.get("scenario", "loaded"),
        scale=float(doc.get("scale", 1.0)),
        config=config,
    )


def save_detection_result(result: BoundaryDetectionResult, path: PathLike) -> None:
    """Write a detection result (candidate/boundary sets, groups) to JSON."""
    doc = {
        "format_version": FORMAT_VERSION,
        "candidates": sorted(result.candidates),
        "boundary": sorted(result.boundary),
        "groups": [list(g) for g in result.groups],
        "localization_used": result.localization_used,
    }
    write_atomic(path, json.dumps(doc))


def load_detection_result(path: PathLike) -> BoundaryDetectionResult:
    """Read a detection result written by :func:`save_detection_result`.

    Per-node UBF outcomes are not persisted; the loaded result carries the
    sets and groups only.
    """
    doc = json.loads(Path(path).read_text())
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return BoundaryDetectionResult(
        candidates=set(doc["candidates"]),
        boundary=set(doc["boundary"]),
        groups=[list(g) for g in doc["groups"]],
        ubf_outcomes=UBFOutcomes.from_outcomes([]),
        localization_used=doc.get("localization_used", "unknown"),
    )
