"""On-demand native kernels for the unit-ball graph build, graph floods,
the sparse localization engine, UBF and the surface hop rows.

The hot loops (the unit-ball CSR build, hop-bounded BFS, frame assembly,
Floyd-Warshall completion, double centering, the top-k ``dsyevr``
eigensolve loop, SMACOF majorization, and the fused UBF candidate search)
are written once in portable C (``ckernels.c``) and compiled lazily with the
system C compiler the first time they are requested.  The resulting
shared object is cached on disk keyed by the source hash, so every later
process (including pool workers) dlopens the same binary -- a
precondition for the byte-identical sharded outputs repro-san checks.

No new dependency is introduced: the build shells out to ``cc`` (or
``$CC``) with ``ctypes`` doing the loading.  The eigensolve loop calls the
LAPACK ``dsyevr`` that scipy's ``flapack`` module links against, found by
:func:`lapack_dsyevr` without importing scipy.  When no compiler is
available, compilation fails, or ``REPRO_NATIVE=0`` is set, callers
receive ``None`` and fall back to the pure-numpy twins in
:mod:`repro.geometry.spatial_index` / :mod:`repro.network.graph` /
:mod:`repro.geometry.mds` / :mod:`repro.geometry.ballfit` -- same results,
more wall clock.

The build pins ``-ffp-contract=off`` (no FMA contraction) so the C
distance and relaxation arithmetic matches the numpy ufunc chain
operation for operation; see ckernels.c for the per-routine contracts.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import tempfile
from typing import Optional, Tuple

import numpy as np

from repro.geometry.mds import smacof_refine as smacof_oracle
from repro.geometry.primitives import as_points
from repro.geometry.spatial_index import UniformGridIndex, auto_cell_size

#: Environment variable gating native kernels; set to ``0`` to force the
#: pure-numpy fallback path (used by the differential tests).
NATIVE_ENV_VAR = "REPRO_NATIVE"

#: Environment variable overriding the shared-object cache directory.
NATIVE_CACHE_ENV_VAR = "REPRO_NATIVE_CACHE"

_C_SOURCE = os.path.join(os.path.dirname(__file__), "ckernels.c")

_CFLAGS = ["-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared"]

#: Rows per register block of the native SMACOF apply (``APPLY_LANES`` in
#: ckernels.c); its transposed-inverse scratch rows are padded to it.
_APPLY_LANES = 16

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_INT64_P = ctypes.POINTER(ctypes.c_int64)
_INT32_P = ctypes.POINTER(ctypes.c_int32)
_UINT8_P = ctypes.POINTER(ctypes.c_uint8)


def _ptr(array: np.ndarray, ctype) -> "ctypes.pointer":
    return array.ctypes.data_as(ctypes.POINTER(ctype))


class NativeKernels:
    """Thin typed wrappers over the compiled ``ckernels`` shared object."""

    def __init__(self, library: ctypes.CDLL, path: str):
        self.path = path
        self._lib = library
        library.unit_ball_csr.restype = ctypes.c_int64
        library.unit_ball_csr.argtypes = [
            _DOUBLE_P, _INT64_P, ctypes.c_int64, _INT64_P, _INT64_P,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
            _INT64_P, _INT64_P,
        ]
        library.hop_bfs.restype = None
        library.hop_bfs.argtypes = [
            _INT64_P, _INT64_P, _INT64_P, ctypes.c_int64, _UINT8_P,
            ctypes.c_int64, ctypes.c_int, _INT64_P, _INT64_P,
            _INT64_P, _INT64_P, _INT64_P, _INT64_P,
        ]
        library.assemble_frames.restype = ctypes.c_int64
        library.assemble_frames.argtypes = [
            _INT64_P, _INT64_P, _INT64_P, _INT64_P, _DOUBLE_P,
            ctypes.c_int64, _DOUBLE_P, _INT64_P,
            _INT32_P, _INT32_P, _DOUBLE_P, _INT64_P, _INT32_P,
        ]
        library.fw_complete_batch.restype = None
        library.fw_complete_batch.argtypes = [
            _DOUBLE_P, ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
            _DOUBLE_P,
        ]
        library.center_gram_batch.restype = None
        library.center_gram_batch.argtypes = [
            _DOUBLE_P, ctypes.c_int64, ctypes.c_int64, _DOUBLE_P,
        ]
        library.syevr_top_batch.restype = None
        library.syevr_top_batch.argtypes = [
            ctypes.c_void_p, _DOUBLE_P, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, _DOUBLE_P, _DOUBLE_P, _DOUBLE_P, _INT32_P,
            _INT32_P, _DOUBLE_P, _DOUBLE_P, _INT32_P,
        ]
        library.smacof_refine_frames.restype = ctypes.c_int64
        library.smacof_refine_frames.argtypes = [
            _DOUBLE_P, _INT64_P, _INT32_P, _INT32_P, _DOUBLE_P, _INT64_P,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
            _DOUBLE_P, _DOUBLE_P, _DOUBLE_P, _INT32_P, _INT64_P,
        ]
        library.ubf_enumerate_scan.restype = None
        library.ubf_enumerate_scan.argtypes = [
            _DOUBLE_P, _INT64_P, _INT64_P, _INT64_P, _INT64_P, _INT64_P,
            ctypes.c_int64, *[ctypes.c_double] * 6, ctypes.c_int, _DOUBLE_P,
            _INT64_P, _INT64_P, _DOUBLE_P, _INT64_P,
        ]

    def unit_ball_csr(
        self, positions: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency of the graph linking points at most ``radius`` apart.

        Returns ``(indptr, indices)`` (int64): point ``i``'s neighbours are
        ``indices[indptr[i]:indptr[i+1]]``, ascending, without ``i``
        itself.  One count pass and one fill pass over radius-sized grid
        cells (:meth:`UniformGridIndex.cell_blocks`); byte-equal to the
        CSR the numpy fallback derives from
        :meth:`UniformGridIndex.neighbor_pairs_array`.
        """
        points = as_points(positions)
        index = UniformGridIndex(points, cell_size=auto_cell_size(radius))
        order, starts, cells = index.cell_blocks(radius)
        binned = np.ascontiguousarray(points[order])
        n = points.shape[0]
        args = (
            _ptr(binned, ctypes.c_double), _ptr(order, ctypes.c_int64), n,
            _ptr(starts, ctypes.c_int64), _ptr(cells, ctypes.c_int64),
            cells.shape[0], cells.shape[1], float(radius) * float(radius),
        )
        indptr = np.empty(n + 1, dtype=np.int64)
        total = self._lib.unit_ball_csr(*args, _ptr(indptr, ctypes.c_int64), None)
        indices = np.empty(total, dtype=np.int64)
        self._lib.unit_ball_csr(
            *args, _ptr(indptr, ctypes.c_int64), _ptr(indices, ctypes.c_int64)
        )
        return indptr, indices

    def hop_bfs(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        sources: np.ndarray,
        hops: int,
        *,
        mask: Optional[np.ndarray] = None,
        shared: bool = False,
        fill: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Hop-bounded BFS from each source over a CSR adjacency.

        Returns ``(ptr, n_one_hop, members)`` (int64): source ``i``'s
        collection is ``members[ptr[i]:ptr[i+1]]`` in frame order -- the
        source, its hop-1 nodes ascending, then the nodes at hop >= 2
        ascending -- and ``n_one_hop[i]`` counts its hop-1 nodes.
        Sources may repeat and come in any order; each gets an
        independent search unless ``shared``, where one visited set spans
        all sources (a source already reached gets an empty collection).
        Only nodes where ``mask`` is true are entered; a source outside
        it reaches nothing.  ``hops < 0`` is unbounded.  With ``fill``
        false only the counts are computed and ``members`` is None.
        """
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        sources = np.ascontiguousarray(sources, dtype=np.int64).reshape(-1)
        n = indptr.shape[0] - 1
        if n < 0 or indptr[-1] != indices.shape[0]:
            raise ValueError("hop_bfs: indptr does not describe indices")
        if sources.size and (sources.min() < 0 or sources.max() >= n):
            raise ValueError("hop_bfs: source ids must lie in [0, n_nodes)")
        if mask is not None:
            mask = np.ascontiguousarray(mask, dtype=np.uint8)
            if mask.shape != (n,):
                raise ValueError("hop_bfs: mask must have one entry per node")
        n_src = sources.shape[0]
        ptr = np.empty(n_src + 1, dtype=np.int64)
        n_one_hop = np.empty(n_src, dtype=np.int64)
        queue = np.empty(max(n, 1), dtype=np.int64)
        common = (
            _ptr(indptr, ctypes.c_int64), _ptr(indices, ctypes.c_int64),
            _ptr(sources, ctypes.c_int64), n_src,
            None if mask is None else _ptr(mask, ctypes.c_uint8),
            int(hops), 1 if shared else 0,
        )
        # Each pass starts from all-zero stamps (see ckernels.c).
        stamp = np.zeros(max(n, 1), dtype=np.int64)
        self._lib.hop_bfs(
            *common, _ptr(stamp, ctypes.c_int64), _ptr(queue, ctypes.c_int64),
            _ptr(ptr, ctypes.c_int64), _ptr(n_one_hop, ctypes.c_int64), None,
            None,
        )
        if not fill:
            return ptr, n_one_hop, None
        members = np.empty(int(ptr[-1]), dtype=np.int64)
        stamp = np.zeros(max(n, 1), dtype=np.int64)
        self._lib.hop_bfs(
            *common, _ptr(stamp, ctypes.c_int64), None,
            _ptr(ptr, ctypes.c_int64), None, None, _ptr(members, ctypes.c_int64),
        )
        return ptr, n_one_hop, members

    def bfs_depths(
        self, indptr: np.ndarray, indices: np.ndarray, source: int, unreached: int
    ) -> np.ndarray:
        """Unbounded BFS hop count from ``source`` to every node (int64).

        One count-only :meth:`hop_bfs` search with its per-node depth
        output; nodes the search does not reach hold ``unreached``.
        """
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        n = indptr.shape[0] - 1
        if n < 0 or indptr[-1] != indices.shape[0]:
            raise ValueError("bfs_depths: indptr does not describe indices")
        if not 0 <= source < n:
            raise ValueError("bfs_depths: source id must lie in [0, n_nodes)")
        depth = np.full(n, unreached, dtype=np.int64)
        sources = np.array([source], dtype=np.int64)
        ptr = np.empty(2, dtype=np.int64)
        self._lib.hop_bfs(
            _ptr(indptr, ctypes.c_int64), _ptr(indices, ctypes.c_int64),
            _ptr(sources, ctypes.c_int64), 1, None, -1, 0,
            _ptr(np.zeros(n, dtype=np.int64), ctypes.c_int64),
            _ptr(np.empty(n, dtype=np.int64), ctypes.c_int64),
            _ptr(ptr, ctypes.c_int64), None, _ptr(depth, ctypes.c_int64), None,
        )
        return depth

    def assemble_frames(
        self,
        members: np.ndarray,
        frame_ptr: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_vals: np.ndarray,
        partial_flat: np.ndarray,
        partial_ptr: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_delta: np.ndarray,
        edge_ptr: np.ndarray,
        local_index: np.ndarray,
    ) -> int:
        """Fill partial matrices + edge lists; returns the edge count."""
        n_frames = frame_ptr.shape[0] - 1
        return int(self._lib.assemble_frames(
            _ptr(members, ctypes.c_int64), _ptr(frame_ptr, ctypes.c_int64),
            _ptr(indptr, ctypes.c_int64), _ptr(indices, ctypes.c_int64),
            _ptr(edge_vals, ctypes.c_double), n_frames,
            _ptr(partial_flat, ctypes.c_double),
            _ptr(partial_ptr, ctypes.c_int64),
            _ptr(edge_src, ctypes.c_int32), _ptr(edge_dst, ctypes.c_int32),
            _ptr(edge_delta, ctypes.c_double), _ptr(edge_ptr, ctypes.c_int64),
            _ptr(local_index, ctypes.c_int32),
        ))

    def fw_complete(self, stack: np.ndarray, unreachable: float) -> None:
        """In-place Floyd-Warshall over a C-contiguous (B, m, m) stack."""
        b, m, _ = stack.shape
        rowk = np.empty(m, dtype=np.float64)
        self._lib.fw_complete_batch(
            _ptr(stack, ctypes.c_double), b, m, unreachable,
            _ptr(rowk, ctypes.c_double),
        )

    def center_gram(self, stack: np.ndarray) -> None:
        """In-place Torgerson centering of a symmetric (B, m, m) stack."""
        b, m, _ = stack.shape
        rowmean = np.empty(m, dtype=np.float64)
        self._lib.center_gram_batch(
            _ptr(stack, ctypes.c_double), b, m,
            _ptr(rowmean, ctypes.c_double),
        )

    def syevr_top(
        self, gram: np.ndarray, k: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Top-``k`` eigenpairs of every slice of a ``(B, m, m)`` stack.

        One native loop of LAPACK ``dsyevr`` calls, each with the
        arguments of scipy's ``syevr(a, compute_v=1, range="I",
        il=m-k+1, iu=m, lower=0)``, so the results equal that call bit for
        bit.  Returns ``(w, z, info)``: ``w`` ``(B, k)`` eigenvalues
        ascending, ``z`` ``(B, k, m)`` their eigenvectors as rows, and
        ``info`` ``(B,)`` int32 ``dsyevr`` statuses (a slice with nonzero
        status holds unspecified values).  None when
        :func:`lapack_dsyevr` finds no ``dsyevr``.
        """
        dsyevr = lapack_dsyevr()
        if dsyevr is None:
            return None
        gram = np.ascontiguousarray(gram, dtype=np.float64)
        if gram.ndim != 3 or gram.shape[1] != gram.shape[2]:
            raise ValueError("syevr_top: gram must be a (B, m, m) stack")
        b, m, _ = gram.shape
        if not 1 <= k <= m:
            raise ValueError("syevr_top: k must lie in [1, m]")
        w = np.empty((b, k))
        z = np.empty((b, k, m))
        info = np.zeros(b, dtype=np.int32)
        self._lib.syevr_top_batch(
            dsyevr, _ptr(gram, ctypes.c_double), b, m, k,
            _ptr(np.empty(m * m), ctypes.c_double),
            _ptr(np.empty(m), ctypes.c_double),
            _ptr(np.empty(26 * m), ctypes.c_double),
            _ptr(np.empty(10 * m, dtype=np.int32), ctypes.c_int32),
            _ptr(np.empty(2 * m, dtype=np.int32), ctypes.c_int32),
            _ptr(w, ctypes.c_double), _ptr(z, ctypes.c_double),
            _ptr(info, ctypes.c_int32),
        )
        return w, z, info

    def smacof_refine(
        self,
        coords: np.ndarray,
        frame_ptr: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_delta: np.ndarray,
        edge_ptr: np.ndarray,
        *,
        iterations: int,
        tol: float,
        max_members: int,
    ) -> np.ndarray:
        """Refine concatenated frame coordinates in place.

        ``coords`` is the C-contiguous ``(total_members, 3)`` array the
        frames' rows live in.  Returns the per-frame step counts.  Frames
        the kernel declines -- a disconnected measured-pair graph makes
        the majorization system singular -- are refined by the scalar
        oracle :func:`~repro.geometry.mds.smacof_refine`, which
        handles them through its pseudo-inverse.
        """
        n_frames = frame_ptr.shape[0] - 1
        steps = np.zeros(n_frames, dtype=np.int64)
        stride = -(-max_members // _APPLY_LANES) * _APPLY_LANES
        scratch_a = np.empty(max(max_members * stride, 1), dtype=np.float64)
        scratch_ainv = np.empty_like(scratch_a)
        scratch_bxt = np.empty(max(max_members * 3, 1), dtype=np.float64)
        scratch_parent = np.empty(max(max_members, 1), dtype=np.int32)
        declined = self._lib.smacof_refine_frames(
            _ptr(coords, ctypes.c_double), _ptr(frame_ptr, ctypes.c_int64),
            _ptr(edge_src, ctypes.c_int32), _ptr(edge_dst, ctypes.c_int32),
            _ptr(edge_delta, ctypes.c_double), _ptr(edge_ptr, ctypes.c_int64),
            n_frames, iterations, tol,
            _ptr(scratch_a, ctypes.c_double), _ptr(scratch_ainv, ctypes.c_double),
            _ptr(scratch_bxt, ctypes.c_double),
            _ptr(scratch_parent, ctypes.c_int32),
            _ptr(steps, ctypes.c_int64),
        )
        if declined:
            for f in np.flatnonzero(steps < 0).tolist():
                lo, hi = int(frame_ptr[f]), int(frame_ptr[f + 1])
                edges = slice(int(edge_ptr[f]), int(edge_ptr[f + 1]))
                src, dst = edge_src[edges], edge_dst[edges]
                target = np.zeros((hi - lo, hi - lo))
                weights = np.zeros((hi - lo, hi - lo))
                target[src, dst] = target[dst, src] = edge_delta[edges]
                weights[src, dst] = weights[dst, src] = 1.0
                coords[lo:hi], steps[f] = smacof_oracle(
                    coords[lo:hi], target, weights, iterations=iterations, tol=tol
                )
        return steps

    def ubf_enumerate_scan(
        self,
        points: np.ndarray,
        rows: np.ndarray,
        pair_base: np.ndarray,
        pair_len: np.ndarray,
        probe_base: np.ndarray,
        probe_len: np.ndarray,
        bounds: Tuple[float, ...],
        find_first: bool,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused Eq.-1 enumeration and emptiness scan over a node batch.

        Point ``k`` is ``points[rows[k]]``; node ``u``'s pair candidates
        are rows ``pair_base[u] .. + pair_len[u]`` and its probes rows
        ``probe_base[u] .. + probe_len[u]``, the first probe being the
        node itself (its origin).  ``bounds`` holds the Eq.-1 filter
        constants and the strict-inside threshold, in
        ``ubf_enumerate_scan``'s parameter order.  Returns the per-node
        ``(balls_tested, points_checked, witness_center, witness_pair)``;
        witness rows are NaN / -1 where no empty ball was found.  Outputs
        equal the numpy fallback's byte for byte (see ckernels.c for the
        floating-point contract).
        """
        points = np.ascontiguousarray(points, dtype=np.float64)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        pair_base = np.ascontiguousarray(pair_base, dtype=np.int64)
        pair_len = np.ascontiguousarray(pair_len, dtype=np.int64)
        probe_base = np.ascontiguousarray(probe_base, dtype=np.int64)
        probe_len = np.ascontiguousarray(probe_len, dtype=np.int64)
        n_nodes = pair_base.shape[0]
        scanned = pair_len >= 2
        if (
            points.ndim != 2
            or points.shape[1] != 3
            or rows.ndim != 1
            or any(a.shape != (n_nodes,) for a in (pair_len, probe_base, probe_len))
            or (rows.size and (rows.min() < 0 or rows.max() >= points.shape[0]))
            or (n_nodes and (pair_base.min() < 0 or probe_base.min() < 0))
            or (n_nodes and (pair_len.min() < 0 or probe_len.min() < 0))
            or (n_nodes and (pair_base + pair_len).max() > rows.size)
            or (n_nodes and (probe_base + probe_len).max() > rows.size)
            or (probe_len[scanned] < 1).any()
        ):
            raise ValueError("ubf_enumerate_scan: inconsistent row-index arrays")
        scratch_rows = (
            int(probe_len[scanned].max() + pair_len[scanned].max())
            if scanned.any()
            else 0
        )
        scratch = np.empty((max(scratch_rows, 1), 3))
        tested = np.zeros(n_nodes, dtype=np.int64)
        checked = np.zeros(n_nodes, dtype=np.int64)
        witness_center = np.full((n_nodes, 3), np.nan)
        witness_pair = np.full((n_nodes, 2), -1, dtype=np.int64)
        self._lib.ubf_enumerate_scan(
            _ptr(points, ctypes.c_double), _ptr(rows, ctypes.c_int64),
            _ptr(pair_base, ctypes.c_int64), _ptr(pair_len, ctypes.c_int64),
            _ptr(probe_base, ctypes.c_int64), _ptr(probe_len, ctypes.c_int64),
            n_nodes, *bounds, 1 if find_first else 0,
            _ptr(scratch, ctypes.c_double),
            _ptr(tested, ctypes.c_int64), _ptr(checked, ctypes.c_int64),
            _ptr(witness_center, ctypes.c_double),
            _ptr(witness_pair, ctypes.c_int64),
        )
        return tested, checked, witness_center, witness_pair


@functools.lru_cache(maxsize=None)
def lapack_dsyevr() -> Optional[int]:
    """Address of the LAPACK ``dsyevr`` scipy's ``flapack`` module calls.

    The ``scipy/linalg/_flapack`` extension is dlopened as a plain shared
    library (found through :func:`importlib.util.find_spec`, so no scipy
    module is imported), and ``scipy_dsyevr_`` (scipy's bundled
    OpenBLAS), then ``dsyevr_`` (a system LAPACK), is looked up through it
    and the libraries it links against.  This is the very routine the
    f2py wrapper calls -- never numpy's ILP64 OpenBLAS or another LAPACK,
    whose rounding may differ.  None when scipy, the extension or the
    symbol is missing.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    for package in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(package, "linalg", "_flapack" + suffix)
            if not os.path.exists(path):
                continue
            try:
                library = ctypes.CDLL(path)
            except OSError:
                continue
            for name in ("scipy_dsyevr_", "dsyevr_"):
                try:
                    symbol = getattr(library, name)
                except AttributeError:
                    continue
                return ctypes.cast(symbol, ctypes.c_void_p).value
    return None


def _cache_dir() -> str:
    override = os.environ.get(NATIVE_CACHE_ENV_VAR)
    if override:
        return override
    tag = f"repro-native-{os.getuid()}" if hasattr(os, "getuid") else "repro-native"
    return os.path.join(tempfile.gettempdir(), tag)


def _source_digest(source_path: str) -> str:
    with open(source_path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:16]


def _compile(source_path: str, out_path: str) -> bool:
    compiler = os.environ.get("CC", "cc")
    tmp_path = f"{out_path}.{os.getpid()}.tmp"
    command = [compiler, *_CFLAGS, "-o", tmp_path, source_path, "-lm"]
    try:
        result = subprocess.run(
            command, capture_output=True, timeout=120, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    if result.returncode != 0:
        return False
    try:
        os.replace(tmp_path, out_path)
    except OSError:
        return False
    return True


_CACHED: Tuple[bool, Optional[NativeKernels]] = (False, None)


def load_kernels() -> Optional[NativeKernels]:
    """Load (compiling if needed) the native kernels, or ``None``.

    The result is cached per process.  ``None`` means "use the numpy
    fallback": the environment disabled native kernels, no working C
    compiler was found, or the compile/load failed.
    """
    global _CACHED
    if _CACHED[0]:
        return _CACHED[1]
    kernels = _load_uncached()
    _CACHED = (True, kernels)
    return kernels


def reset_kernel_cache() -> None:
    """Forget the per-process kernel handle (test hook)."""
    global _CACHED
    _CACHED = (False, None)


def _load_uncached() -> Optional[NativeKernels]:
    if os.environ.get(NATIVE_ENV_VAR, "1").lower() in ("0", "off", "no", "false"):
        return None
    if not os.path.exists(_C_SOURCE):
        return None
    cache = _cache_dir()
    so_path = os.path.join(cache, f"ckernels-{_source_digest(_C_SOURCE)}.so")
    if not os.path.exists(so_path):
        try:
            os.makedirs(cache, exist_ok=True)
        except OSError:
            return None
        if not _compile(_C_SOURCE, so_path):
            return None
    try:
        library = ctypes.CDLL(so_path)
        return NativeKernels(library, so_path)
    except OSError:
        return None
