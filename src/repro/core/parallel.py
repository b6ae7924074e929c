"""Thread-parallel MDS frame construction.

Step (I)'s frame construction is embarrassingly parallel by construction:
a node's frame reads nothing but its own ``hops``-hop collection and the
measured distances inside it, so the node set can be partitioned
arbitrarily across workers without any coordination.
:func:`run_frames_parallel` is the pool's only driver.  For MDS frames it
cuts the requested nodes into contiguous :data:`FRAME_SHARD_SIZE` slices,
embeds each slice with :func:`repro.network.localization.build_frames` on
a thread of this process, and merges the per-shard batches back into node
order with :meth:`FrameBatch.concat
<repro.network.localization.FrameBatch.concat>`.  True-coordinate frames
and UBF run as one in-process call at any worker count: each costs less
than cutting it into shards (docs/PERFORMANCE.md).  :func:`run_ubf_parallel`
survives only as an entry point that packs a frame mapping and calls
:func:`repro.core.ubf.run_ubf`.

Threads
-------
Shards read the graph and measured distances the caller already holds;
nothing is copied.  The heavy loops are native kernels loaded through
``ctypes.CDLL``, which releases the GIL for the length of each call, and
the kernels keep no global state, so shards run in parallel on shared
read-only arrays.  Per-graph preparation happens once, before the
fan-out: the kernel handle and LAPACK ``dsyevr`` address (or, without
native kernels, the sparse engine's collection-sweep operator), the
measured value of every CSR entry, and the sorted pair snapshot behind
it, so shards neither redo that work nor build the same lazy cache
twice.  At most ``workers`` shards are in flight: shard ``k`` is
submitted only once shard ``k - workers`` has returned, so a failing or
interrupted run starts no shard past that window.

Determinism contract
--------------------
The driver adds no randomness and no order-dependence: each thread
computes the same per-node results the sequential path would, shards are
contiguous slices of the requested node order with boundaries fixed by
:data:`FRAME_SHARD_SIZE` (never by the worker count), and results are
collected in submission order.  The merged batch is therefore *identical*
-- not just equivalent -- for any worker count, which
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
bytes) is identical for any ``workers`` value.  Shards return their spans
as plain dicts; the caller's thread grafts them in shard order.
True-coordinate frames emit the ``localization.frames`` span alone.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import UBFConfig
from repro.core.ubf import FRAME_MODES, UBFOutcomes, localize_frames, run_ubf
from repro.geometry.native import lapack_dsyevr, load_kernels
from repro.network.generator import Network
from repro.network.graph import NetworkGraph
from repro.network.localization import (
    DEFAULT_COLLECTION_HOPS,
    DEFAULT_ENGINE,
    FrameBatch,
    LocalFrame,
    build_frames,
)
from repro.network.measurement import MeasuredDistances
from repro.observability.tracer import ensure_tracer

#: Nodes per localization shard.  Fixed (rather than derived from the
#: worker count) so shard boundaries -- and the ``localization.shard`` spans
#: they emit -- are a property of the input alone.  Large enough for the
#: sparse engine to amortize its call overhead across the size-grouped MDS
#: batches of a shard.
FRAME_SHARD_SIZE = 512


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
    edge_vals: Optional[np.ndarray],
    trace: bool,
    clock_factory,
    shard: Tuple[int, List[int]],
) -> Tuple[FrameBatch, Optional[Dict[str, Any]]]:
    """One shard's MDS frames, plus its span dict when tracing (pool
    threads and the in-process loop alike, so both time a shard the same
    way)."""
    index, node_ids = shard
    run = partial(
        build_frames, graph, measured,
        hops=hops, engine=engine, nodes=node_ids, edge_vals=edge_vals,
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


def _map_in_order(fn: Callable, items: Sequence, workers: int) -> List:
    """``[fn(item) for item in items]`` on ``workers`` threads.

    At most ``workers`` items are in flight: item ``k`` is submitted once
    item ``k - workers`` has returned, so when an item raises (or the
    caller's thread is interrupted) no item past that window has started.
    ``Executor.map`` submits every item up front, and a thread freed by the
    failing item can start more of them before the caller sees the error.
    """
    results: List = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        window: deque = deque()
        for item in items:
            if len(window) == workers:
                results.append(window.popleft().result())
            window.append(pool.submit(fn, item))
        results.extend(future.result() for future in window)
    return results


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
    1): the fused scan over a whole frame batch costs less than cutting
    it into shards.  ``frames`` (a :class:`FrameBatch`, or a mapping of node
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
    """Step (I) over the whole network; MDS frames shard across threads.

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
    no coordinate to compute or copy, which costs less than cutting it
    into shards (docs/PERFORMANCE.md).
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
    # Per-graph prep once per run, not once per shard (module docstring).
    if load_kernels() is not None:
        lapack_dsyevr()
    elif engine == "sparse":
        graph.reach_operator()
    edge_vals = measured.csr_values(*graph.csr()) if engine == "sparse" else None
    run = partial(
        _frames_shard, graph, measured, hops, engine, edge_vals,
        tracer.enabled, tracer.shard_clock,
    )
    with tracer.span("localization.frames", n_shards=len(shards), **attrs) as span:
        if in_process:
            results = [run(shard) for shard in enumerate(shards)]
        else:
            results = _map_in_order(
                run, list(enumerate(shards)), min(workers, len(shards))
            )
        frames = FrameBatch.concat([batch for batch, _ in results])
        if tracer.enabled:
            tracer.attach([doc for _, doc in results])
            span.set_many(frame_span_counters(frames))
    return frames
