"""Process-parallel MDS frame construction.

Step (I)'s frame construction is embarrassingly parallel by construction:
a node's frame reads nothing but its own ``hops``-hop collection and the
measured distances inside it, so the node set can be partitioned
arbitrarily across workers without any coordination.
:func:`run_frames_parallel` is the pool's only driver.  For MDS frames it
cuts the requested nodes into contiguous :data:`FRAME_SHARD_SIZE` slices,
embeds each slice with :func:`repro.core.ubf.localize_frames` in a worker
process, and merges the per-shard batches back into node order with
:meth:`FrameBatch.concat <repro.network.localization.FrameBatch.concat>`.
True-coordinate frames and UBF run as one in-process call at any worker
count: each costs less than the pool round trip (docs/PERFORMANCE.md).
:func:`run_ubf_parallel` survives only as an entry point that packs a
frame mapping and calls :func:`repro.core.ubf.run_ubf`.

Payload transport
-----------------
The payload is five arrays: node positions, the CSR adjacency
(``indptr``, ``indices``) and the measured pairs and values.  They are
**not pickled** to workers: the parent publishes them once into a single
``multiprocessing.shared_memory`` segment, and each worker's initializer
maps read-only views of it and rebuilds the :class:`NetworkGraph` and
:class:`MeasuredDistances` that ``localize_frames`` reads, exactly once
per worker.  Only the segment descriptor and a few scalars travel through
the pool's ``initargs``, under both ``fork`` and ``spawn`` (the fallback
where fork does not exist).

Determinism contract
--------------------
The driver adds no randomness and no order-dependence: each worker computes
the same per-node results the sequential path would, shards are contiguous
slices of the requested node order with boundaries fixed by
:data:`FRAME_SHARD_SIZE` (never by the worker count), and
``ProcessPoolExecutor.map`` returns them in submission order.
Shared-memory rehydration preserves every payload byte and the measured
distances' insertion order, so the merged batch is *identical* -- not just
equivalent -- for any worker count and start method, which
``tests/property/test_prop_parallel_determinism.py`` pins down to the byte
level.  (This leans on the engines being slice-independent: a frame's bits
do not depend on which other frames share its MDS batch, so fixed shard
boundaries are sufficient.)

Tracing contract
----------------
With a :class:`repro.observability.Tracer` attached, MDS frame
construction emits one ``localization.frames`` span with one
``localization.shard`` child per shard (node range, wall time, work
counters), at every worker count ``workers=1`` included.  Each shard is
timed by a fresh clock from the tracer's ``shard_clock`` factory -- so the
span forest (and, under a deterministic injected clock, the exported JSONL
bytes) is identical for any ``workers`` value.  Worker processes return
their shard spans as plain dicts; the parent grafts them in shard order.
True-coordinate frames emit the ``localization.frames`` span alone.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from multiprocessing import shared_memory
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import UBFConfig
from repro.core.ubf import FRAME_MODES, UBFOutcomes, localize_frames, run_ubf
from repro.network.generator import Network
from repro.network.graph import NetworkGraph
from repro.network.localization import (
    DEFAULT_COLLECTION_HOPS,
    DEFAULT_ENGINE,
    FrameBatch,
    LocalFrame,
)
from repro.network.measurement import MeasuredDistances
from repro.observability.tracer import ensure_tracer

#: Nodes per localization shard.  Fixed (rather than derived from the
#: worker count) so shard boundaries -- and the ``localization.shard`` spans
#: they emit -- are a property of the input alone; workers then pull shards
#: from a common queue, which also keeps uneven per-node costs balanced.
#: Large enough for the sparse engine to amortize its call overhead across
#: the size-grouped MDS batches of a shard.
FRAME_SHARD_SIZE = 512

#: Worker-process state installed once per worker by the pool initializer:
#: the shard function bound to the rebuilt graph and measured distances,
#: and the shared-memory handle that keeps their views mapped.
_WORKER_STATE: dict = {}


@dataclass(frozen=True)
class _SharedSpec:
    """Picklable descriptor of one shared-memory segment of named arrays."""

    name: str
    arrays: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]


class _SharedArrays:
    """Parent-side owner of a payload segment (create, fill, unlink)."""

    def __init__(self, arrays: Dict[str, np.ndarray]):
        contiguous = {
            key: np.ascontiguousarray(value) for key, value in arrays.items()
        }
        specs: List[Tuple[str, str, Tuple[int, ...], int]] = []
        offset = 0
        for key, value in contiguous.items():
            offset = (offset + 63) & ~63  # cache-line align each array
            specs.append((key, value.dtype.str, value.shape, offset))
            offset += value.nbytes
        self._shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for (key, dtype, shape, start), value in zip(specs, contiguous.values()):
            target = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=start
            )
            target[...] = value
        self.spec = _SharedSpec(self._shm.name, tuple(specs))

    def dispose(self) -> None:
        """Release the segment (workers have exited; views are dead)."""
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _attach_shared(
    spec: _SharedSpec,
) -> Tuple[Dict[str, np.ndarray], shared_memory.SharedMemory]:
    """Worker-side: map the segment, return read-only views plus the handle.

    The handle must stay referenced for the views' lifetime (it owns the
    mapping); the initializer parks it in ``_WORKER_STATE``.
    """
    handle = shared_memory.SharedMemory(name=spec.name)
    views: Dict[str, np.ndarray] = {}
    for key, dtype, shape, offset in spec.arrays:
        view = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=handle.buf, offset=offset
        )
        view.flags.writeable = False
        views[key] = view
    return views, handle


def _payload_arrays(
    graph: NetworkGraph, measured: MeasuredDistances
) -> Dict[str, np.ndarray]:
    """The arrays an MDS worker rebuilds its graph and distances from."""
    indptr, indices = graph.csr()
    items = list(measured.items())
    return {
        "positions": graph.positions,  # lint: allow[LOC001] -- payload transport, not algorithm logic: the worker rebuilds the same graph the caller already holds
        "indptr": indptr,
        "indices": indices,
        "pairs": np.array([pair for pair, _ in items], dtype=np.int64).reshape(-1, 2),
        "values": np.array([value for _, value in items], dtype=float),
    }


def _payload_from_arrays(
    arrays: Dict[str, np.ndarray], radio_range: float
) -> Tuple[NetworkGraph, MeasuredDistances]:
    graph = NetworkGraph.from_csr(
        arrays["positions"], radio_range, arrays["indptr"], arrays["indices"]
    )
    pairs = arrays["pairs"].tolist()
    values = arrays["values"].tolist()
    # Insertion order matches the parent's dict, so iteration-order
    # observables (items()) -- and anything serialized from them -- agree.
    measured = MeasuredDistances(
        {(pair[0], pair[1]): value for pair, value in zip(pairs, values)}
    )
    return graph, measured


def shard_nodes_by_size(node_ids: Sequence[int]) -> List[List[int]]:
    """Partition ``node_ids`` into contiguous slices of :data:`FRAME_SHARD_SIZE`.

    The partition depends only on the input (not on the worker count), so
    per-shard observables are stable across any process distribution.
    """
    ids = [int(n) for n in node_ids]
    return [ids[i : i + FRAME_SHARD_SIZE] for i in range(0, len(ids), FRAME_SHARD_SIZE)]


def frame_span_counters(frames: FrameBatch) -> Dict[str, int]:
    """Deterministic span counters summarizing a batch of local frames.

    Shared by the ``localization.frames`` parent span and the per-shard
    ``localization.shard`` spans -- the values depend only on the frames,
    never on sharding or timing.
    """
    return {
        "n_frames": len(frames),
        "total_members": int(frames.ptr[-1]),
        "total_smacof_iterations": int(frames.smacof_iterations.sum()),
    }


def _frames_shard(
    graph: NetworkGraph,
    measured: MeasuredDistances,
    hops: int,
    engine: str,
    trace: bool,
    clock_factory,
    shard: Tuple[int, List[int]],
) -> Tuple[FrameBatch, Optional[Dict[str, Any]]]:
    """One shard's MDS frames, plus its span dict when tracing (workers
    and the in-process path alike, so both time a shard the same way)."""
    index, node_ids = shard
    run = partial(
        localize_frames, graph, measured, node_ids, mode="mds", hops=hops, engine=engine
    )
    if not trace:
        return run(), None
    clock = clock_factory() if clock_factory is not None else time.perf_counter
    start = clock()
    frames = run()
    end = clock()
    attrs = {
        "shard_index": index,
        "n_nodes": len(node_ids),
        "node_first": node_ids[0],
        "node_last": node_ids[-1],
        **frame_span_counters(frames),
    }
    span = {
        "name": "localization.shard",
        "start": start,
        "end": end,
        "attrs": attrs,
        "events": [],
        "children": [],
    }
    return frames, span


def _pool_context():
    """Fork where available (cheap start-up); spawn otherwise.

    Results do not depend on the start method: the payload travels by
    shared memory either way.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform
        return multiprocessing.get_context("spawn")


def _init_worker(spec, radio_range, hops, engine, trace, clock_factory) -> None:
    # Install the read-only payload exactly once per worker process: map
    # the parent's shared-memory segment (no copy) and rebuild the graph
    # and measured distances around its views.  The parent never reads
    # _WORKER_STATE back; shard results travel through the pool's return
    # channel, so the one-way write is safe.
    views, handle = _attach_shared(spec)
    graph, measured = _payload_from_arrays(views, radio_range)
    run = partial(_frames_shard, graph, measured, hops, engine, trace, clock_factory)
    _WORKER_STATE.update({"run": run, "shm": handle})  # lint: allow[PAR008] -- sanctioned initializer idiom: write-once per-process payload install, never read by the parent


def _run_shard(shard: Tuple[int, List[int]]):
    return _WORKER_STATE["run"](shard)


def run_ubf_parallel(
    network: Network,
    config: UBFConfig = UBFConfig(),
    *,
    measured: Optional[MeasuredDistances] = None,
    localization: str = "true",
    find_first: bool = True,
    workers: int = 1,
    nodes: Optional[Sequence[int]] = None,
    frames: Optional[Union[FrameBatch, Mapping[int, LocalFrame]]] = None,
    tracer=None,
) -> UBFOutcomes:
    """Phase 1 through :func:`repro.core.ubf.run_ubf`, in this process.

    UBF never shards, whatever ``workers`` is (it must still be at least
    1): the fused scan over a whole frame batch costs less than the pool
    round trip.  ``frames`` (a :class:`FrameBatch`, or a mapping of node
    ID to :class:`LocalFrame`, packed here) passes precomputed local
    frames through so the stage classifies instead of re-localizing.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if frames is not None and not isinstance(frames, FrameBatch):
        frames = FrameBatch.from_frames(frames.values())
    return run_ubf(
        network,
        config,
        measured=measured,
        localization=localization,
        find_first=find_first,
        nodes=nodes,
        frames=frames,
        tracer=tracer,
    )


def run_frames_parallel(
    network: Network,
    measured: Optional[MeasuredDistances] = None,
    *,
    mode: str = "mds",
    hops: int = DEFAULT_COLLECTION_HOPS,
    engine: str = DEFAULT_ENGINE,
    workers: int = 1,
    nodes: Optional[Sequence[int]] = None,
    tracer=None,
) -> FrameBatch:
    """Step (I) over the whole network; MDS frames shard across processes.

    Builds every node's local frame once -- through the sparse
    localization engine by default -- so downstream stages (UBF, quality
    diagnostics) reuse them instead of re-localizing per node.  Output is
    one :class:`FrameBatch` ordered as ``nodes`` (node-ID order by
    default) and byte-identical for any worker count (see the module
    docstring).  ``mode`` mirrors the pipeline's resolved localization:
    ``"mds"`` (honors ``engine``) or ``"true"``; ``workers`` must be at
    least 1 in either mode.

    Untraced, ``workers=1`` (or a single shard) is one
    :func:`localize_frames` call over all nodes, the call ``detect()``
    makes.  Traced, even ``workers=1`` runs shard by shard, so the span
    forest is the same at every worker count: ``repro-san``'s engine
    matrix byte-diffs tick-clock traces across workers {1, 2, 4}.  The
    shard loop costs about 7 % on the perfbench ``sphere_noisy_3k``
    network, about the spread between runs (docs/PERFORMANCE.md).

    True-coordinate frames are one :func:`localize_frames` call in this
    process under one ``localization.frames`` span, whatever ``workers``
    is: they are one collection sweep indexing ``graph.positions``, with
    no coordinate to compute or copy, which costs less than the pool
    round trip (docs/PERFORMANCE.md).
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if mode not in FRAME_MODES:
        raise ValueError("mode must be 'mds' or 'true'")
    if mode == "mds" and measured is None:
        raise ValueError(f"mode={mode!r} requires measured distances")
    graph = network.graph
    ids = list(range(graph.n_nodes)) if nodes is None else [int(n) for n in nodes]
    tracer = ensure_tracer(tracer)
    attrs = {"n_nodes": len(ids), "mode": mode, "engine": engine, "hops": hops}
    if mode == "true":
        with tracer.span("localization.frames", **attrs) as span:
            frames = localize_frames(
                graph, measured, ids, mode=mode, hops=hops, engine=engine
            )
            if tracer.enabled:
                span.set_many(frame_span_counters(frames))
        return frames

    shards = shard_nodes_by_size(ids)
    in_process = workers == 1 or len(shards) <= 1
    if not tracer.enabled and in_process:
        return localize_frames(graph, measured, ids, mode=mode, hops=hops, engine=engine)
    trace_args = (tracer.enabled, tracer.shard_clock)
    with tracer.span("localization.frames", n_shards=len(shards), **attrs) as span:
        if in_process:
            run = partial(_frames_shard, graph, measured, hops, engine, *trace_args)
            results = [run(shard) for shard in enumerate(shards)]
        else:
            # Publish the payload arrays once into shared memory; workers
            # receive only the segment descriptor and scalars.
            shared = _SharedArrays(_payload_arrays(graph, measured))
            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(shards)),
                    mp_context=_pool_context(),
                    initializer=_init_worker,
                    initargs=(shared.spec, graph.radio_range, hops, engine, *trace_args),
                ) as pool:
                    results = list(pool.map(_run_shard, enumerate(shards)))
            finally:
                shared.dispose()
        frames = FrameBatch.concat([batch for batch, _ in results])
        if tracer.enabled:
            tracer.attach([doc for _, doc in results])
            span.set_many(frame_span_counters(frames))
    return frames
