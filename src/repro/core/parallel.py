"""Process-parallel sharding of MDS frame construction.

Step (I)'s frame construction is embarrassingly parallel by construction:
a node's frame reads nothing but its own ``hops``-hop collection and the
measured distances inside it, so the node set can be partitioned
arbitrarily across workers without any coordination.  This module
provides one generic driver, :func:`run_sharded`, that shards node IDs
into contiguous fixed-size slices, runs a picklable *shard task* on each
slice in a worker process, and merges the per-shard results back into
node order through the result type's ``concat``.  The pool serves only
the work it wins on, embedded (MDS) frames: :func:`run_frames_parallel`
returns one :class:`~repro.network.localization.FrameBatch`, so the
pipeline computes every frame once and the UBF stage classifies that
batch.  True-coordinate frames and UBF run as one in-process call at any
worker count: each costs less than the pool round trip
(docs/PERFORMANCE.md).  :func:`run_ubf_parallel` survives only as an
entry point that packs a frame mapping and calls
:func:`repro.core.ubf.run_ubf`.

Payload transport
-----------------
Task payloads are dominated by big numpy arrays (positions, CSR adjacency,
measured distances).  They are **not pickled** to workers -- that costs a
serialize/deserialize round per worker and, under spawn, a second copy per
worker: the parent publishes them once into a single
``multiprocessing.shared_memory`` segment and each worker's initializer
rehydrates the task -- exactly once per worker -- around zero-copy
read-only views of that segment (see ``_SharedArrays`` /
``export_payload``/``import_payload``).  Only a small array-free task
shell and the segment descriptor travel through the pool's ``initargs``.
This holds under both ``fork`` and ``spawn``; the spawn path is pinned by
an explicit regression test via the ``start_method`` override.

Determinism contract
--------------------
The driver adds no randomness and no order-dependence: each worker computes
the same per-node results the sequential path would, shards are contiguous
slices of the requested node order with boundaries fixed by the task's
shard size (never by the worker count), and ``ProcessPoolExecutor.map``
returns them in submission order.  Shared-memory rehydration preserves
every payload byte and every iteration-order observable, so the merged
result is *identical* -- not just equivalent -- for any worker count and
start method, which ``tests/property/test_prop_parallel_determinism.py``
pins down to the byte level.  (This leans on the engines being
slice-independent: a frame's bits do not depend on which other frames
share its MDS batch, so fixed shard boundaries are sufficient.)

Tracing contract
----------------
With a :class:`repro.observability.Tracer` attached, MDS frame
construction emits one ``localization.frames`` span with one
``localization.shard`` child per shard (node range, wall time, work
counters).  Shard boundaries come from the task's fixed shard size, and
each shard is timed by a fresh clock from the tracer's ``shard_clock``
factory -- so the span forest (and, under a deterministic injected clock,
the exported JSONL bytes) is identical for any ``workers`` value.  Worker
processes return their shard spans as plain dicts; the parent grafts them
in shard order.  True-coordinate frames emit the ``localization.frames``
span alone.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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

#: Below this many nodes the pool start-up cost dwarfs the work; the driver
#: silently degrades to the in-process path (same results either way).
MIN_PARALLEL_NODES = 64

#: Nodes per localization shard.  Fixed (rather than derived from the
#: worker count) so shard boundaries -- and the ``localization.shard`` spans
#: they emit -- are a property of the input alone; workers then pull shards
#: from a common queue, which also keeps uneven per-node costs balanced.
#: Large enough for the sparse engine to amortize its call overhead across
#: the size-grouped MDS batches of a shard.
FRAME_SHARD_SIZE = 512

#: Worker-process state installed once per worker by the pool initializer.
#: The heavy task payload (network arrays, measured distances) never
#: travels through pickle at all: it is published once into a
#: shared-memory segment and rehydrated here, exactly once per worker.
_WORKER_STATE: dict = {}

#: How many times this process has materialized a task payload (0 in the
#: parent, 1 in a healthy worker).  A regression observable: the spawn
#: context test asserts every shard saw exactly one install, i.e. shards
#: never re-pickle or re-hydrate the payload.
_MATERIALIZED = 0


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


@dataclass(frozen=True)
class _NetworkHandle:
    """Array-free stand-in riding a task's ``network`` field in transit."""

    radio_range: float
    scenario: str
    scale: float
    config: Any


def _export_network(
    network: Network, arrays: Dict[str, np.ndarray], prefix: str
) -> _NetworkHandle:
    indptr, indices = network.graph.csr()
    arrays[prefix + "positions"] = network.graph.positions  # lint: allow[LOC001] -- payload transport, not algorithm logic: the worker rebuilds the same Network the caller already holds
    arrays[prefix + "indptr"] = indptr
    arrays[prefix + "indices"] = indices
    arrays[prefix + "truth"] = network.truth_boundary  # lint: allow[LOC001] -- payload transport, not algorithm logic: ground truth rides along for the evaluation stages
    return _NetworkHandle(
        radio_range=network.graph.radio_range,
        scenario=network.scenario,
        scale=network.scale,
        config=network.config,
    )


def _import_network(
    handle: _NetworkHandle, arrays: Dict[str, np.ndarray], prefix: str
) -> Network:
    graph = NetworkGraph.from_csr(
        arrays[prefix + "positions"],
        handle.radio_range,
        arrays[prefix + "indptr"],
        arrays[prefix + "indices"],
    )
    return Network(
        graph=graph,
        truth_boundary=arrays[prefix + "truth"],
        scenario=handle.scenario,
        scale=handle.scale,
        config=handle.config,
    )


@dataclass(frozen=True)
class _MeasuredHandle:
    """Array-free stand-in for a task's ``measured`` field in transit."""

    count: int


def _export_measured(
    measured: Optional[MeasuredDistances],
    arrays: Dict[str, np.ndarray],
    prefix: str,
) -> Optional[_MeasuredHandle]:
    if measured is None:
        return None
    items = list(measured.items())
    pairs = np.array([pair for pair, _ in items], dtype=np.int64).reshape(-1, 2)
    values = np.array([value for _, value in items], dtype=float)
    arrays[prefix + "pairs"] = pairs
    arrays[prefix + "values"] = values
    return _MeasuredHandle(count=len(items))


def _import_measured(
    handle: Optional[_MeasuredHandle],
    arrays: Dict[str, np.ndarray],
    prefix: str,
) -> Optional[MeasuredDistances]:
    if handle is None:
        return None
    pairs = arrays[prefix + "pairs"].tolist()
    values = arrays[prefix + "values"].tolist()
    # Insertion order matches the parent's dict, so iteration-order
    # observables (items()) -- and anything serialized from them -- agree.
    return MeasuredDistances(
        {(pair[0], pair[1]): value for pair, value in zip(pairs, values)}
    )


def shard_nodes_by_size(
    node_ids: Sequence[int], shard_size: int = FRAME_SHARD_SIZE
) -> List[List[int]]:
    """Partition ``node_ids`` into contiguous slices of ``shard_size``.

    The partition depends only on the input (not on the worker count), so
    per-shard observables are stable across any process distribution.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be at least 1")
    ids = [int(n) for n in node_ids]
    return [ids[i : i + shard_size] for i in range(0, len(ids), shard_size)]


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


@dataclass(frozen=True)
class _FrameShardTask:
    """Picklable frame-construction task for :func:`run_sharded`."""

    network: Network
    measured: Optional[MeasuredDistances]
    mode: str
    hops: int
    engine: str

    span_name = "localization.frames"
    shard_span_name = "localization.shard"
    shard_size = FRAME_SHARD_SIZE
    merge = staticmethod(FrameBatch.concat)

    def span_attrs(self, node_ids: List[int]) -> Dict[str, Any]:
        return {
            "n_nodes": len(node_ids),
            "mode": self.mode,
            "engine": self.engine,
            "hops": self.hops,
        }

    def run(self, node_ids: List[int]) -> FrameBatch:
        return localize_frames(
            self.network.graph,
            self.measured,
            node_ids,
            mode=self.mode,
            hops=self.hops,
            engine=self.engine,
        )

    def counters(self, results: FrameBatch) -> Dict[str, Any]:
        return frame_span_counters(results)

    def export_payload(self) -> Tuple["_FrameShardTask", Dict[str, np.ndarray]]:
        """Split into an array-free shell plus the payload arrays."""
        arrays: Dict[str, np.ndarray] = {}
        shell = replace(
            self,
            network=_export_network(self.network, arrays, "net."),
            measured=_export_measured(self.measured, arrays, "meas."),
        )
        return shell, arrays

    def import_payload(self, arrays: Dict[str, np.ndarray]) -> "_FrameShardTask":
        """Rebuild the full task around shared-memory array views."""
        return replace(
            self,
            network=_import_network(self.network, arrays, "net."),
            measured=_import_measured(self.measured, arrays, "meas."),
        )


@dataclass(frozen=True)
class _PayloadProbeTask:
    """Test-support shard task observing per-worker payload installs.

    ``run`` echoes, for every node, the worker's materialization counter
    and the rehydrated network size -- letting the spawn-context
    regression test assert that each shard ran against a payload that was
    materialized exactly once in its worker, whichever worker that was.
    """

    network: Network

    span_name = "payload.probe"
    shard_span_name = "payload.probe.shard"
    shard_size = 16

    @staticmethod
    def merge(parts: List[list]) -> list:
        return [item for part in parts for item in part]

    def span_attrs(self, node_ids: List[int]) -> Dict[str, Any]:
        return {"n_nodes": len(node_ids)}

    def run(self, node_ids: List[int]) -> List[Tuple[int, int, int]]:
        return [
            (int(n), _MATERIALIZED, self.network.graph.n_nodes) for n in node_ids
        ]

    def counters(self, results: list) -> Dict[str, Any]:
        return {"n_probes": len(results)}

    def export_payload(self) -> Tuple["_PayloadProbeTask", Dict[str, np.ndarray]]:
        arrays: Dict[str, np.ndarray] = {}
        return replace(self, network=_export_network(self.network, arrays, "net.")), arrays

    def import_payload(self, arrays: Dict[str, np.ndarray]) -> "_PayloadProbeTask":
        return replace(self, network=_import_network(self.network, arrays, "net."))


def _pool_context(start_method: Optional[str] = None):
    """Fork where available (cheap start-up); spawn otherwise.

    ``start_method`` forces a specific method -- the spawn regression test
    uses it to exercise the cold-import worker path on fork platforms.
    Results are start-method independent: the payload travels by shared
    memory either way.
    """
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _shard_clock(factory: Optional[Callable[[], Callable[[], float]]]):
    """A fresh per-shard clock (wall clock unless a factory is injected)."""
    return factory() if factory is not None else time.perf_counter


def _shard_span_dict(
    task,
    index: int,
    node_ids: List[int],
    results: list,
    start: float,
    end: float,
) -> Dict[str, Any]:
    """One per-shard span as a plain dict (picklable, graftable)."""
    attrs: Dict[str, Any] = {
        "shard_index": index,
        "n_nodes": len(node_ids),
        "node_first": node_ids[0],
        "node_last": node_ids[-1],
    }
    attrs.update(task.counters(results))
    return {
        "name": task.shard_span_name,
        "start": start,
        "end": end,
        "attrs": attrs,
        "events": [],
        "children": [],
    }


def _init_worker(task, shm_spec, trace, clock_factory) -> None:
    # Install the read-only payload exactly once per worker process.  The
    # parent never reads _WORKER_STATE back; shard results travel through
    # the pool's return channel, so the one-way write is safe.  The task
    # arrives as an array-free shell; its arrays are mapped (not copied)
    # from the parent's shared-memory segment and the shell is rehydrated
    # around them, bumping the per-process materialization counter the
    # spawn regression test reads back through _PayloadProbeTask.
    global _MATERIALIZED
    views, handle = _attach_shared(shm_spec)
    task = task.import_payload(views)
    _MATERIALIZED += 1  # lint: allow[PAR008] -- write-once per-process install count, read back only through shard results (test observable), never by the parent
    _WORKER_STATE.update(  # lint: allow[PAR008] -- sanctioned initializer idiom: write-once per-process payload install, never read by the parent
        {"task": task, "trace": trace, "clock_factory": clock_factory, "shm": handle}
    )


def _run_timed_shard(
    task, index: int, node_ids: List[int], trace: bool, clock_factory
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """One shard's results, plus its span dict when tracing (workers and
    the in-process path alike, so both time a shard the same way)."""
    if not trace:
        return task.run(node_ids), None
    clock = _shard_clock(clock_factory)
    start = clock()
    results = task.run(node_ids)
    end = clock()
    return results, _shard_span_dict(task, index, node_ids, results, start, end)


def _run_shard(shard: Tuple[int, List[int]]) -> Tuple[Any, Optional[Dict[str, Any]]]:
    index, node_ids = shard
    return _run_timed_shard(
        _WORKER_STATE["task"],
        index,
        node_ids,
        _WORKER_STATE["trace"],
        _WORKER_STATE["clock_factory"],
    )


def run_sharded(
    task,
    node_ids: Sequence[int],
    *,
    workers: int = 1,
    tracer=None,
    start_method: Optional[str] = None,
) -> Any:
    """Run a per-node shard task over ``node_ids``, optionally in parallel.

    ``task`` is a picklable object providing ``run(node_ids)``,
    ``counters(results) -> dict``, ``span_attrs(node_ids) -> dict``,
    ``merge(per_shard_results)`` (the result type's ``concat``), and the
    class attributes ``span_name``, ``shard_span_name``, and
    ``shard_size`` (see :class:`_FrameShardTask`), plus
    ``export_payload``/``import_payload`` for the shared-memory transport.
    Results merge in ``node_ids`` order; see the module docstring for
    the determinism and tracing contracts.  ``workers=1`` (and small
    inputs, see :data:`MIN_PARALLEL_NODES`) run in-process; the untraced
    sequential case short-circuits to a single ``task.run`` call with zero
    shard bookkeeping.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    tracer = ensure_tracer(tracer)
    ids = [int(n) for n in node_ids]
    shards = shard_nodes_by_size(ids, task.shard_size)
    in_process = workers == 1 or len(ids) < MIN_PARALLEL_NODES or len(shards) <= 1
    if not tracer.enabled and in_process:
        return task.run(ids)

    with tracer.span(
        task.span_name, n_shards=len(shards), **task.span_attrs(ids)
    ) as span:
        if in_process:
            results = [
                _run_timed_shard(
                    task, index, shard, tracer.enabled, tracer.shard_clock
                )
                for index, shard in enumerate(shards)
            ]
        else:
            # Publish the payload arrays once into shared memory; workers
            # receive only the array-free task shell plus the segment spec.
            shell, payload = task.export_payload()
            shared = _SharedArrays(payload)
            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(shards)),
                    mp_context=_pool_context(start_method),
                    initializer=_init_worker,
                    initargs=(
                        shell,
                        shared.spec,
                        tracer.enabled,
                        tracer.shard_clock if tracer.enabled else None,
                    ),
                ) as pool:
                    results = list(pool.map(_run_shard, enumerate(shards)))
            finally:
                shared.dispose()
        merged = task.merge([shard_results for shard_results, _ in results])
        if tracer.enabled:
            tracer.attach([doc for _, doc in results if doc is not None])
            span.set_many(task.counters(merged))
    return merged


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
    start_method: Optional[str] = None,
) -> FrameBatch:
    """Step (I) over the whole network; MDS frames shard across processes.

    Builds every node's local frame once -- through the sparse
    localization engine by default -- so downstream stages (UBF, quality
    diagnostics) reuse them instead of re-localizing per node.  Output is
    one :class:`FrameBatch` ordered as ``nodes`` (node-ID order by
    default) and byte-identical for any worker count (see the module
    docstring).  ``mode`` mirrors the pipeline's resolved localization:
    ``"mds"`` (honors ``engine``) or ``"true"``.
    True-coordinate frames are one :func:`localize_frames` call in this
    process under one ``localization.frames`` span, whatever ``workers``
    is: they are one collection sweep indexing ``graph.positions``, with
    no coordinate to compute or copy, which costs less than the pool
    round trip (docs/PERFORMANCE.md).
    """
    if mode not in FRAME_MODES:
        raise ValueError("mode must be 'mds' or 'true'")
    if mode == "mds" and measured is None:
        raise ValueError(f"mode={mode!r} requires measured distances")
    node_ids = (
        list(range(network.graph.n_nodes)) if nodes is None else [int(n) for n in nodes]
    )
    task = _FrameShardTask(
        network=network, measured=measured, mode=mode, hops=hops, engine=engine
    )
    if mode == "mds":
        return run_sharded(
            task, node_ids, workers=workers, tracer=tracer, start_method=start_method
        )
    tracer = ensure_tracer(tracer)
    with tracer.span(task.span_name, **task.span_attrs(node_ids)) as span:
        frames = task.run(node_ids)
        if tracer.enabled:
            span.set_many(task.counters(frames))
    return frames
