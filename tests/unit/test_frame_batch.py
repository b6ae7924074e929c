"""The array types between localization and UBF: ``FrameBatch``/``UBFOutcomes``.

``detect()`` carries every node's local frame as one CSR
:class:`~repro.network.localization.FrameBatch` and every UBF verdict as
one :class:`~repro.core.ubf.UBFOutcomes`; the per-node
``LocalFrame``/``UBFNodeOutcome`` objects survive only as views and
oracle outputs.  These tests pin the batch operations, the memory a
true-mode batch holds, that ``detect()`` builds no per-node object, that
true-mode frames never start a thread pool or cut shards, that a
failing MDS shard starts no shard past the pool's window, and that a
sharded MDS run computes its CSR edge values once, not once per shard.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro import DeploymentConfig, generate_network, scenario_by_name
from repro.core import parallel
from repro.core.config import DetectorConfig
from repro.core.parallel import run_frames_parallel
from repro.core.pipeline import BoundaryDetector
from repro.core.ubf import UBFNodeOutcome, UBFOutcomes, localize_frames, run_ubf
from repro.network.localization import FrameBatch, LocalFrame, true_local_frame
from repro.network.measurement import UniformAbsoluteError, measure_distances
from repro.observability.export import trace_lines
from repro.observability.tracer import TickClock, Tracer

FIELDS = ("nodes", "ptr", "members", "coords", "n_one_hop", "smacof_iterations")

#: Bytes a true-mode batch may hold per frame member: an int64 member ID
#: (8 B), which is also the row index into the shared position table,
#: plus the per-frame arrays spread over the ~70 members of a 2-hop frame
#: (8.5 B measured).  Copied coordinates would add 24 B a member (32.5 B
#: measured), and one ``LocalFrame`` per node about twice that again.
MAX_BYTES_PER_MEMBER = 12


def _batches_equal(a: FrameBatch, b: FrameBatch) -> bool:
    return all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in FIELDS
    )


@pytest.fixture(scope="module")
def sphere_3k():
    """A fixed ~3k-node sphere (the memory test's deployment)."""
    return generate_network(
        scenario_by_name("sphere"),
        DeploymentConfig(n_surface=1200, n_interior=1800, target_degree=24, seed=11),
        scenario="sphere",
    )


class TestFrameBatch:
    def test_views_match_per_node_oracle(self, sphere_network):
        graph = sphere_network.graph
        batch = run_frames_parallel(sphere_network, mode="true")
        assert len(batch) == graph.n_nodes
        for v in (0, 17, graph.n_nodes - 1):
            view, oracle = batch.frame(v), true_local_frame(graph, v)
            assert view.node == oracle.node
            assert view.members == oracle.members
            assert view.n_one_hop == oracle.n_one_hop
            assert view.coordinates.tobytes() == oracle.coordinates.tobytes()

    def test_from_frames_round_trips_the_views(self, sphere_network):
        batch = run_frames_parallel(sphere_network, mode="true")
        assert _batches_equal(FrameBatch.from_frames(batch), batch)
        empty = FrameBatch.from_frames([])
        assert len(empty) == 0 and empty.ptr.tolist() == [0]
        assert empty.coords.shape == (0, 3)

    def test_true_batch_indexes_the_positions(self, sphere_network):
        """True frames keep one point table, the graph's own, and a row
        index that is the member array itself -- also when the network
        spans several frame shards."""
        graph = sphere_network.graph
        assert graph.n_nodes > parallel.FRAME_SHARD_SIZE
        batch = run_frames_parallel(sphere_network, mode="true", workers=2)
        assert batch.points is graph.positions
        assert batch.rows is batch.members

    def test_concat_stacks_owned_tables(self, sphere_network):
        """Batches are stacked, each row index offset into the stack --
        also when an index is not ``arange`` (true frames index the
        network's positions)."""
        graph = sphere_network.graph

        def frames(nodes):
            return localize_frames(graph, None, nodes, mode="true")

        parts = [FrameBatch.from_frames(frames(range(0, 7))), frames(range(7, 20))]
        joined = FrameBatch.concat(parts)
        assert len(joined.points) == len(parts[0].points) + graph.n_nodes
        assert _batches_equal(joined, frames(range(20)))
        mixed = FrameBatch.concat([frames([10, 7]), parts[0], frames([6])])
        assert _batches_equal(mixed, frames([10, 7, *range(7), 6]))
        assert len(FrameBatch.concat([])) == 0

    def test_coords_is_read_only(self, sphere_network):
        batch = run_frames_parallel(sphere_network, mode="true")
        with pytest.raises(AttributeError):
            batch.coords = np.empty((0, 3))


class TestUBFOutcomes:
    def test_views_indexing_and_packing(self, sphere_network):
        outcomes = run_ubf(sphere_network, nodes=range(40))
        assert isinstance(outcomes, UBFOutcomes) and len(outcomes) == 40
        views = list(outcomes)
        assert all(isinstance(o, UBFNodeOutcome) for o in views)
        assert outcomes[5] == views[5] and outcomes[-1] == views[-1]
        assert UBFOutcomes.from_outcomes(views) == outcomes


def test_true_frames_never_use_the_pool(sphere_network, monkeypatch):
    """``mode="true"`` is one in-process call for any ``workers``: no pool,
    no shard spans, and the same trace."""

    def _traced(workers):
        tracer = Tracer(clock=TickClock(), shard_clock=TickClock)
        batch = run_frames_parallel(
            sphere_network, mode="true", workers=workers, tracer=tracer
        )
        return batch, trace_lines(tracer.roots)

    reference, reference_lines = _traced(1)

    def _no_pool(*args, **kwargs):
        raise AssertionError("true-mode frames started a thread pool")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _no_pool)
    assert sphere_network.graph.n_nodes > parallel.FRAME_SHARD_SIZE  # 2+ shards
    batch = run_frames_parallel(sphere_network, mode="true", workers=2)
    assert _batches_equal(batch, reference)
    traced, lines = _traced(2)
    assert _batches_equal(traced, reference)
    assert lines == reference_lines
    assert not [line for line in lines if "localization.shard" in line]


class _ShardFailed(Exception):
    """Injected into the first MDS shard."""


@pytest.mark.parametrize("workers", (2, 4))
def test_failing_shard_starts_no_shard_past_the_window(
    sphere_network, monkeypatch, workers
):
    """When the first shard raises, at most ``workers`` shards ever start:
    shard ``k`` is submitted only after shard ``k - workers`` returned."""
    measured = measure_distances(
        sphere_network.graph, UniformAbsoluteError(0.3), np.random.default_rng(7)
    )
    started = []
    build = parallel.build_frames

    def failing_first(graph, measured, *, nodes, **kwargs):
        started.append(nodes[0])
        if nodes[0] == 0:  # only the first shard starts at node 0
            raise _ShardFailed
        return build(graph, measured, nodes=nodes, **kwargs)

    monkeypatch.setattr(parallel, "build_frames", failing_first)
    # Four copies of the node set: ten shards, the first one failing.
    nodes = list(range(sphere_network.graph.n_nodes)) * 4
    with pytest.raises(_ShardFailed):
        run_frames_parallel(sphere_network, measured, workers=workers, nodes=nodes)
    assert 0 in started and len(started) <= workers, started


@pytest.mark.parametrize("workers, traced", ((1, True), (2, False), (4, True)))
def test_sharded_run_prepares_edge_values_once(
    sphere_network, monkeypatch, workers, traced
):
    """The measured value of every CSR entry is computed once per run,
    before the fan-out, not once per shard."""
    measured = measure_distances(
        sphere_network.graph, UniformAbsoluteError(0.3), np.random.default_rng(7)
    )
    calls = []
    csr_values = type(measured).csr_values

    def counting(self, indptr, indices):
        calls.append(len(indices))
        return csr_values(self, indptr, indices)

    monkeypatch.setattr(type(measured), "csr_values", counting)
    nodes = list(range(sphere_network.graph.n_nodes)) * 2
    assert len(parallel.shard_nodes_by_size(nodes)) >= 4
    tracer = Tracer(clock=TickClock(), shard_clock=TickClock) if traced else None
    run_frames_parallel(
        sphere_network, measured, workers=workers, nodes=nodes, tracer=tracer
    )
    assert calls == [len(sphere_network.graph.csr()[1])]


def test_true_batch_bytes_per_member(sphere_3k):
    """The frames ``run_frames_parallel`` returns hold <= 12 B a member."""
    run_frames_parallel(sphere_3k, mode="true")  # warm the cached sweep operator
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        frames = run_frames_parallel(sphere_3k, mode="true")
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_members = sum(len(f.members) for f in frames)
    assert n_members > 50 * sphere_3k.graph.n_nodes  # 2-hop frames
    assert held / n_members <= MAX_BYTES_PER_MEMBER


@pytest.mark.parametrize("error", [0.0, 0.3], ids=["true", "mds"])
def test_detect_builds_no_per_node_objects(sphere_network, monkeypatch, error):
    counts = {LocalFrame: 0, UBFNodeOutcome: 0}
    for cls in counts:
        original = cls.__init__

        def counting(self, *args, _cls=cls, _original=original, **kwargs):
            counts[_cls] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    config = (
        DetectorConfig(error_model=UniformAbsoluteError(error))
        if error
        else DetectorConfig()
    )
    result = BoundaryDetector(config).detect(
        sphere_network, rng=np.random.default_rng(3)
    )
    assert result.localization_used == ("mds" if error else "true")
    assert counts == {LocalFrame: 0, UBFNodeOutcome: 0}
    # The patch is live: a view of the result is one construction.
    result.ubf_outcomes[0]
    assert counts[UBFNodeOutcome] == 1
