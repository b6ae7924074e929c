"""Distance measurement with synthetic ranging errors.

The paper introduces "a wide range of random errors, from 0 to 100% of the
radio transmission radius, in the distance measurement" (Sec. IV-A); with
the range normalized to 1, an error level ``e`` perturbs each measured
distance by a uniform draw from ``[-e, e]``.  That uniform-absolute model is
the default here; uniform-relative and Gaussian variants are provided for
sensitivity studies.

Measurements are generated **once per edge**: both endpoints observe the
same measured value, as a real two-way ranging exchange would agree on, and
repeated queries return the same value (determinism requirement).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.network.graph import NetworkGraph

#: Floor applied to measured distances; ranging cannot report a
#: non-positive distance between distinct nodes.
MIN_MEASURED_DISTANCE = 1e-6


class DistanceErrorModel(ABC):
    """Strategy that perturbs a vector of true distances."""

    @abstractmethod
    def perturb(self, true_distances: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return measured distances for ``true_distances``."""

    def describe(self) -> str:
        """Human-readable tag used in reports."""
        return type(self).__name__


@dataclass(frozen=True)
class NoError(DistanceErrorModel):
    """Perfect ranging; measured distance equals true distance."""

    def perturb(self, true_distances: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.asarray(true_distances, dtype=float).copy()

    def describe(self) -> str:
        return "no-error"


@dataclass(frozen=True)
class UniformAbsoluteError(DistanceErrorModel):
    """Additive uniform error in ``[-level, level]`` radio-range units.

    This is the paper's sweep axis: ``level = 0.3`` corresponds to the "30%
    distance measurement error" point of Figs. 1 and 11.
    """

    level: float

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("error level must be non-negative")

    def perturb(self, true_distances: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        true = np.asarray(true_distances, dtype=float)
        noise = rng.uniform(-self.level, self.level, size=true.shape)
        return np.maximum(true + noise, MIN_MEASURED_DISTANCE)

    def describe(self) -> str:
        return f"uniform-absolute({self.level:.0%})"


@dataclass(frozen=True)
class UniformRelativeError(DistanceErrorModel):
    """Multiplicative uniform error: ``d' = d * (1 + U(-level, level))``."""

    level: float

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("error level must be non-negative")

    def perturb(self, true_distances: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        true = np.asarray(true_distances, dtype=float)
        factor = 1.0 + rng.uniform(-self.level, self.level, size=true.shape)
        return np.maximum(true * factor, MIN_MEASURED_DISTANCE)

    def describe(self) -> str:
        return f"uniform-relative({self.level:.0%})"


@dataclass(frozen=True)
class GaussianError(DistanceErrorModel):
    """Additive zero-mean Gaussian error with standard deviation ``sigma``."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def perturb(self, true_distances: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        true = np.asarray(true_distances, dtype=float)
        noise = rng.normal(0.0, self.sigma, size=true.shape) if self.sigma else 0.0
        return np.maximum(true + noise, MIN_MEASURED_DISTANCE)

    def describe(self) -> str:
        return f"gaussian(sigma={self.sigma:.3f})"


class MeasuredDistances:
    """Symmetric store of per-edge measured distances.

    Indexable by node pair in either order; missing pairs (non-edges) raise
    ``KeyError`` -- nodes can only range against their one-hop neighbors.
    """

    def __init__(self, values: Dict[Tuple[int, int], float]):
        self._values = values
        self._sorted_cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = None

    @staticmethod
    def _key(u: int, v: int) -> Tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def get(self, u: int, v: int) -> float:
        """Measured distance between neighbors ``u`` and ``v``."""
        return self._values[self._key(u, v)]

    def csr_values(self, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Per-directed-CSR-entry measured values, vectorized.

        The bulk twin of :meth:`get`: the value for the edge stored at
        CSR position ``p`` (row ``u``, column ``indices[p]``) is
        ``result[p]``, with no per-entry dict lookup.
        Pairs are encoded as ``min * n + max`` and resolved with one
        ``searchsorted`` against a sorted snapshot of the measured pairs,
        built once and cached on the instance.  Raises ``KeyError`` when
        the CSR contains an unmeasured pair, mirroring :meth:`get`.
        """
        n = int(indptr.size) - 1
        cache = self._sorted_cache
        if cache is None or cache[0] != n:
            if self._values:
                pairs = np.array(list(self._values), dtype=np.int64)
                keys = pairs[:, 0] * n + pairs[:, 1]
                vals = np.fromiter(
                    self._values.values(), dtype=float, count=len(self._values)
                )
                order = np.argsort(keys)
                keys = keys[order]
                vals = vals[order]
            else:
                keys = np.empty(0, dtype=np.int64)
                vals = np.empty(0, dtype=float)
            cache = (n, keys, vals)
            self._sorted_cache = cache
        _, keys, vals = cache
        heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        cols = indices.astype(np.int64, copy=False)
        encoded = np.minimum(heads, cols) * n + np.maximum(heads, cols)
        pos = np.searchsorted(keys, encoded)
        if encoded.size and (
            pos.max(initial=0) >= keys.size
            or not np.array_equal(keys[np.minimum(pos, keys.size - 1)], encoded)
        ):
            raise KeyError("CSR adjacency contains an unmeasured pair")
        return vals[pos]

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        u, v = pair
        return self._key(u, v) in self._values

    def __len__(self) -> int:
        return len(self._values)

    def items(self):
        """Iterate ``((u, v), distance)`` with ``u < v``."""
        return self._values.items()


def measure_distances(
    graph: NetworkGraph,
    model: DistanceErrorModel,
    rng: np.random.Generator,
) -> MeasuredDistances:
    """Measure every edge of ``graph`` once under ``model``.

    Returns a :class:`MeasuredDistances` usable by the localization step.
    Edges are drawn in :meth:`NetworkGraph.edges` order.  The true
    distances come from one stacked product over the edge array, each
    equal bit for bit to :meth:`NetworkGraph.distance` (the same dot
    product under its square root; an ``einsum`` or an explicit
    ``x*x + y*y + z*z`` rounds differently on some edges).
    """
    edge_array = graph.edge_array()
    if not edge_array.size:
        return MeasuredDistances({})
    pos = graph.positions
    d = pos[edge_array[:, 0]] - pos[edge_array[:, 1]]
    true = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
    measured = model.perturb(true, rng)
    return MeasuredDistances(
        dict(zip(map(tuple, edge_array.tolist()), measured.tolist()))
    )
