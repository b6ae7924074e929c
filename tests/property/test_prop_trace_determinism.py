"""Worker-count invariance of exported traces.

The MDS frame driver shards by the fixed :data:`FRAME_SHARD_SIZE`, times
each shard with a fresh clock from the tracer's ``shard_clock`` factory,
and grafts worker-produced span dicts in shard order -- so under a
deterministic injected clock the exported JSONL trace must be
*byte-identical* for any worker count.  Process distribution is an
execution detail; it must leave no trace in the trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parallel import (
    FRAME_SHARD_SIZE,
    run_frames_parallel,
    shard_nodes_by_size,
)
from repro.network.measurement import UniformAbsoluteError, measure_distances
from repro.observability.export import trace_lines, validate_trace_lines
from repro.observability.tracer import TickClock, Tracer

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def measured(sphere_network):
    return measure_distances(
        sphere_network.graph, UniformAbsoluteError(0.3), np.random.default_rng(7)
    )


def _traced_run(network, measured, workers: int):
    tracer = Tracer(clock=TickClock(), shard_clock=TickClock)
    frames = run_frames_parallel(network, measured, workers=workers, tracer=tracer)
    return frames, tracer, trace_lines(tracer.roots)


def _frame_bytes(frames):
    return [
        getattr(frames, name).tobytes()
        for name in ("nodes", "ptr", "members", "coords", "n_one_hop",
                     "smacof_iterations")
    ]


def _shard_spans(tracer):
    (frames_span,) = tracer.roots
    assert frames_span.name == "localization.frames"
    return frames_span, [
        c for c in frames_span.children if c.name == "localization.shard"
    ]


class TestTraceWorkerCountInvariance:
    def test_trace_bytes_identical_across_worker_counts(
        self, sphere_network, measured
    ):
        assert sphere_network.graph.n_nodes > FRAME_SHARD_SIZE  # multiple shards
        reference_frames, _, reference_lines = _traced_run(
            sphere_network, measured, 1
        )
        assert validate_trace_lines(reference_lines) == []
        for workers in WORKER_COUNTS[1:]:
            frames, _, lines = _traced_run(sphere_network, measured, workers)
            assert _frame_bytes(frames) == _frame_bytes(reference_frames)
            assert lines == reference_lines, (
                f"workers={workers} produced a different trace"
            )

    def test_one_shard_span_per_fixed_size_shard(self, sphere_network, measured):
        _, tracer, _ = _traced_run(sphere_network, measured, 2)
        _, shard_spans = _shard_spans(tracer)
        shards = shard_nodes_by_size(range(sphere_network.graph.n_nodes))
        assert len(shard_spans) == len(shards) > 1
        for span, shard in zip(shard_spans, shards):
            assert span.attrs["n_nodes"] == len(shard)
            assert span.attrs["node_first"] == shard[0]
            assert span.attrs["node_last"] == shard[-1]

    def test_shard_counters_sum_to_stage_counters(self, sphere_network, measured):
        _, tracer, _ = _traced_run(sphere_network, measured, 4)
        frames_span, shard_spans = _shard_spans(tracer)
        for key in ("n_frames", "total_members", "total_smacof_iterations"):
            assert frames_span.attrs[key] == sum(s.attrs[key] for s in shard_spans)

    def test_untraced_parallel_results_unchanged(self, sphere_network, measured):
        baseline = run_frames_parallel(sphere_network, measured, workers=1)
        traced, _, _ = _traced_run(sphere_network, measured, 2)
        assert _frame_bytes(traced) == _frame_bytes(baseline)
