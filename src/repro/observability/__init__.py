"""Structured tracing, metrics, and profiling hooks for the pipeline.

The package is dependency-free (stdlib only) and sits *below* every other
``repro`` layer in the import DAG, so any stage -- the geometry kernels,
the detection pipeline, the surface builder, the message simulator, the
evaluation drivers -- can emit spans and metrics without creating an
upward or lateral edge (see ``repro.analysis.rules.layering``).

Three pieces:

* :mod:`repro.observability.tracer` -- nested stage spans (wall time,
  counters, config snapshots) behind a :class:`Tracer`, with a shared
  no-op :data:`NULL_TRACER` so instrumented hot paths pay essentially
  nothing when tracing is disabled.
* :mod:`repro.observability.metrics` -- a :class:`MetricsRegistry` of
  named counters / gauges / histograms that absorbs the ad-hoc
  observables scattered through the pipeline result objects.
* :mod:`repro.observability.export` -- JSONL trace export, schema
  validation, and round-trip parsing, so traces are machine-parseable
  CI artifacts (see ``docs/OBSERVABILITY.md``).
"""

from repro.observability.export import (
    TRACE_FORMAT_VERSION,
    load_trace,
    parse_trace,
    render_trace_tree,
    trace_lines,
    validate_trace_lines,
    write_trace,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    record_campaign_report,
)
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TickClock,
    Tracer,
    config_snapshot,
    ensure_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TickClock",
    "TRACE_FORMAT_VERSION",
    "Tracer",
    "config_snapshot",
    "ensure_tracer",
    "load_trace",
    "parse_trace",
    "record_campaign_report",
    "render_trace_tree",
    "trace_lines",
    "validate_trace_lines",
    "write_trace",
]
