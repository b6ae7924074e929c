"""Step I: landmark election and combinatorial Voronoi cells.

A subset of boundary nodes is elected as landmarks such that any two
landmarks are at least ``k`` hops apart within the boundary subgraph; ``k``
controls the mesh fineness (3..5 in the paper).  Every other boundary node
then associates with its hop-closest landmark, breaking ties toward the
smallest landmark ID -- producing approximate Voronoi cells on the boundary
surface (Fig. 1(c)).

The election here is the deterministic greedy k-hop maximal independent
set: nodes are considered in increasing ID order and selected unless an
already-selected landmark sits within ``k - 1`` hops.  This is exactly the
fixed point the distributed ID-priority election of
:mod:`repro.runtime.protocols.election` converges to.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.surface.hops import GroupHops


def elect_landmarks(hops: GroupHops, k: int = 3) -> List[int]:
    """Elect landmarks within one boundary group.

    Parameters
    ----------
    hops:
        Hop rows of one boundary group (one connected component of the
        boundary subgraph).
    k:
        Minimum pairwise landmark hop distance (within the group).

    Returns
    -------
    Sorted landmark IDs.  Every group member is within ``k - 1`` hops of a
    landmark (maximality), and no two landmarks are closer than ``k`` hops
    (independence).  Each landmark's row is computed on election, so
    :func:`assign_voronoi_cells` reads rows that already exist.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    landmarks: List[int] = []
    covered = np.zeros(hops.nodes.size, dtype=bool)
    for column, node in enumerate(hops.nodes.tolist()):
        if covered[column]:
            continue
        landmarks.append(node)
        # Suppress any node within k-1 hops: a later candidate there would
        # be closer than k hops to this landmark.
        covered |= hops.row(node) <= k - 1
    return landmarks


def assign_voronoi_cells(
    hops: GroupHops, landmarks: Iterable[int]
) -> Dict[int, int]:
    """Associate every group node with its closest landmark.

    Ties (equal hop distance to several landmarks) go to the landmark with
    the smallest ID, the paper's tiebreaker: the landmark rows are stacked
    in ascending ID order and ``argmin`` keeps the first minimum.

    Returns
    -------
    dict mapping every reachable group node, in ascending node ID, to its
    landmark ID.
    """
    ordered = sorted(set(int(l) for l in landmarks))
    for landmark in ordered:
        if landmark not in hops.members:
            raise ValueError(f"landmark {landmark} is not in the group")
    if not ordered:
        return {}
    rows = np.stack([hops.row(landmark) for landmark in ordered])
    reached = rows.min(axis=0) < hops.sentinel
    owners = np.asarray(ordered)[rows.argmin(axis=0)[reached]]
    return dict(zip(hops.nodes[reached].tolist(), owners.tolist()))
