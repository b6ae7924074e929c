"""Named counters, gauges, and histograms for pipeline observables.

A :class:`MetricsRegistry` gives run-level observables one queryable home
with a deterministic, JSON-ready snapshot.  Three writers fill one: the
service's job store and worker count job lifecycle events
(``service.*``), the bench records per-stage peak RSS through
:func:`record_peak_rss` (``rss.<stage>.peak_bytes``), and the campaign
runner absorbs its report through :func:`record_campaign_report`
(``campaign.*``).

:func:`record_campaign_report` is duck-typed: this package sits below every
pipeline layer in the import DAG, so it reads the report through its
attributes instead of importing its class (which would be an upward edge
under LAY002).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

Number = Union[int, float]


class Counter:
    """Monotonically increasing count (work done, items seen)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value (sizes, fractions, settings)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Distribution of observed values with a summary snapshot.

    Values are kept (the pipeline's cardinalities are small -- nodes,
    groups, shards), so the summary can report exact order statistics via
    the nearest-rank rule without any numeric dependency.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: List[Number] = []

    def observe(self, value: Number) -> None:
        self.values.append(value)

    @staticmethod
    def _nearest_rank(ordered: List[Number], q: float) -> Number:
        index = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
        return ordered[index]

    def summary(self) -> Dict[str, Number]:
        """count/sum/min/max/mean/p50/p95 of everything observed so far."""
        if not self.values:
            return {"count": 0, "sum": 0, "min": 0, "max": 0, "mean": 0.0,
                    "p50": 0, "p95": 0}
        ordered = sorted(self.values)
        total = sum(ordered)
        return {
            "count": len(ordered),
            "sum": total,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": total / len(ordered),
            "p50": self._nearest_rank(ordered, 0.50),
            "p95": self._nearest_rank(ordered, 0.95),
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics in one flat namespace.

    Asking for an existing name with a different metric kind is an error:
    a silent type swap would corrupt whatever the first writer recorded.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, kind: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic (name-sorted) JSON-ready snapshot of every metric."""
        snapshot: Dict[str, Dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                snapshot["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                snapshot["gauges"][name] = metric.value
            else:
                snapshot["histograms"][name] = metric.summary()
        return snapshot


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process in bytes, or ``None``.

    Reads ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` -- a process-wide
    high-water mark, reported in KiB on Linux and bytes on macOS.  Returns
    ``None`` where the ``resource`` module is unavailable (Windows), so
    callers can skip recording instead of writing platform-shaped zeros.
    """
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-dependent
        return int(peak)
    return int(peak) * 1024


def record_peak_rss(registry: MetricsRegistry, stage: str) -> Optional[int]:
    """Record peak RSS so far under the gauge ``rss.<stage>.peak_bytes``.

    ``ru_maxrss`` never decreases, so a value recorded right after a stage
    means "the high-water mark up to and including this stage" -- a cheap,
    allocation-free way to see which pipeline stage first pushed memory to
    its peak.  Returns the recorded value, or ``None`` (and records
    nothing) where the platform cannot report it.
    """
    value = peak_rss_bytes()
    if value is None:  # pragma: no cover - non-POSIX platform
        return None
    registry.gauge(f"rss.{stage}.peak_bytes").set(value)
    return value


def record_campaign_report(registry: MetricsRegistry, report: Any) -> None:
    """Absorb a campaign-run report (duck-typed) into ``campaign.*`` metrics.

    Expects ``n_cells``, ``submitted``, ``reused``, ``cache_hits``,
    ``executed``, ``done`` and ``dead`` counts (see
    ``repro.service.campaign.CampaignReport``).
    """
    registry.counter("campaign.runs").inc()
    registry.counter("campaign.cells.total").inc(report.n_cells)
    registry.counter("campaign.cells.submitted").inc(report.submitted)
    registry.counter("campaign.cells.reused").inc(report.reused)
    registry.counter("campaign.cells.cache_hits").inc(report.cache_hits)
    registry.counter("campaign.cells.executed").inc(report.executed)
    registry.counter("campaign.cells.done").inc(report.done)
    registry.counter("campaign.cells.dead").inc(report.dead)
