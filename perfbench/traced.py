"""The traced run: the calls ``detect()`` makes, one layer at a time.

Spans are recorded here, around the public calls into each layer, so the
program under test is timed exactly as users run it and nothing inside it
changes.  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Set

import numpy as np

from repro.core.grouping import group_boundary_nodes
from repro.core.iff import run_iff
from repro.core.parallel import (
    frame_span_counters,
    run_frames_parallel,
    run_ubf_parallel,
)
from repro.core.pipeline import BoundaryDetectionResult
from repro.core.ubf import candidates_from_outcomes, ubf_span_counters
from repro.network.measurement import measure_distances

#: Layers whose spans make up the traced chain of one detection.
DETECT_LAYERS = ("localization", "ubf", "iff", "grouping")


def peak_rss_mib() -> float:
    """Process high-water RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """In-memory span tree: name, parent, start, end, RSS, counters."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Time the enclosed calls; yields the span's counter dict."""
        if not self.enabled:
            yield {}
            return
        record: Dict[str, Any] = {
            "id": len(self.records),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "counters": dict(attrs),
        }
        self.records.append(record)
        self._stack.append(record["id"])
        start = time.perf_counter()
        try:
            yield record["counters"]
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record.update(start=start, end=end, seconds=end - start,
                          rss_mib=peak_rss_mib())

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["name"] == name]

    def seconds(self, name: str) -> float:
        """Total time of every span called ``name``."""
        return sum(r["seconds"] for r in self.named(name))

    def counter(self, name: str, key: str) -> float:
        """Sum of counter ``key`` over every span called ``name``."""
        return sum(r["counters"].get(key, 0) for r in self.named(name))

    def rss_mib(self, name: str) -> float:
        """High-water RSS read when the last ``name`` span closed."""
        spans = self.named(name)
        return spans[-1]["rss_mib"] if spans else 0.0

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def traced_detect(
    spans: Spans, network, config, rng: np.random.Generator
) -> BoundaryDetectionResult:
    """``BoundaryDetector(config).detect(network, rng=rng)``, layer by layer.

    Mirrors the calls and arguments of :meth:`BoundaryDetector.detect`
    with tracing off inside each call; the benchmark counts the run as
    failed unless candidates, boundary and groups come out identical.
    """
    graph = network.graph
    mode = config.resolved_localization()
    measured = None
    with spans.span("localization", mode=mode) as loc:
        if mode in ("mds", "trilateration"):
            measured = measure_distances(graph, config.error_model, rng)
        frame_list = run_frames_parallel(
            network,
            measured,
            mode=mode,
            hops=config.ubf.collection_hops,
            engine=config.localization_config.engine,
            workers=config.workers,
        )
        frames = {f.node: f for f in frame_list}
    loc.update(frame_span_counters(frame_list))

    with spans.span("ubf") as ubf:
        outcomes = run_ubf_parallel(
            network,
            config.ubf,
            measured=measured,
            localization=mode,
            workers=config.workers,
            frames=frames,
        )
        candidates: Set[int] = candidates_from_outcomes(outcomes)
    ubf.update(ubf_span_counters(outcomes))

    with spans.span("iff") as iff:
        boundary = run_iff(graph, candidates, config.iff)
    iff.update(n_candidates=len(candidates), n_kept=len(boundary),
               n_demoted=len(candidates) - len(boundary))

    with spans.span("grouping") as grp:
        groups = group_boundary_nodes(graph, boundary)
    grp.update(n_groups=len(groups))

    return BoundaryDetectionResult(
        candidates=candidates,
        boundary=boundary,
        groups=groups,
        ubf_outcomes=outcomes,
        localization_used=mode,
    )
