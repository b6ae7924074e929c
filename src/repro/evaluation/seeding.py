"""Identity-derived RNG substreams for sweep cells.

The experiment drivers used to derive each sweep cell's random substream
from the cell's *position* in the sweep (``default_rng([seed, index])``),
which made a cell's result depend on which other cells happened to be in
the same grid: the ``level=0.3`` cell of a three-point sweep drew from a
different stream than the same cell run alone.  That breaks the campaign
manager's memoization contract -- a cell must be a pure function of its
own identity so that running it standalone, inside a hand-rolled sweep,
or as a job-service campaign cell all produce byte-identical results.

:func:`cell_substream` replaces the positional index with a stable
64-bit digest of the cell's *semantic identity* (its axis values, sorted
JSON, SHA-256), keeping the paper's ``default_rng([seed, cell])``
two-word seeding pattern but making ``cell`` content-addressed -- the
same derivation the job store's result cache uses for whole jobs
(:meth:`repro.service.jobstore.JobSpec.cache_key`).

Identity dictionaries must hold plain JSON scalars; numpy scalars are
normalized so ``np.float64(0.1)`` and ``0.1`` name the same cell.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from typing import Any, Dict, Mapping

import numpy as np

__all__ = ["cell_substream", "cell_rng", "error_cell_identity"]


def _normalize(value: Any) -> Any:
    """Coerce numpy scalars to plain Python so the JSON form is canonical."""
    if isinstance(value, bool):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, str) or value is None:
        return value
    raise TypeError(
        f"cell identity values must be JSON scalars, got {type(value).__name__}"
    )


def cell_substream(identity: Mapping[str, Any]) -> int:
    """Stable 64-bit substream word for one sweep cell.

    The word is the leading 16 hex digits of the SHA-256 over the
    sorted-keys JSON of ``identity``; combine it with the sweep seed as
    ``np.random.default_rng([seed, cell_substream(identity)])`` (or use
    :func:`cell_rng`).  Equal identities -- regardless of sweep shape,
    cell order, or how the cell was invoked -- always yield the same
    substream.
    """
    canonical: Dict[str, Any] = {
        str(key): _normalize(value) for key, value in identity.items()
    }
    payload = json.dumps(canonical, sort_keys=True)
    return int(hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16], 16)


def cell_rng(seed: int, identity: Mapping[str, Any]) -> np.random.Generator:
    """The ``default_rng([seed, cell])`` generator for one sweep cell."""
    return np.random.default_rng([int(seed), cell_substream(identity)])


def error_cell_identity(level: float) -> Dict[str, Any]:
    """Identity of one measurement-error sweep cell (Figs. 1(g-i))."""
    return {"cell": "error", "level": float(level)}

