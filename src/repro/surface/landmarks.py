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

from typing import Dict, Iterable, List, Set, Tuple

from repro.surface.hops import GroupHops


def elect_landmarks(hops: GroupHops, k: int = 3) -> List[int]:
    """Elect landmarks within one boundary group.

    Parameters
    ----------
    hops:
        Flood memo of one boundary group (one connected component of the
        boundary subgraph).
    k:
        Minimum pairwise landmark hop distance (within the group).

    Returns
    -------
    Sorted landmark IDs.  Every group member is within ``k - 1`` hops of a
    landmark (maximality), and no two landmarks are closer than ``k`` hops
    (independence).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    landmarks: List[int] = []
    covered: Set[int] = set()
    for node in sorted(hops.members):
        if node in covered:
            continue
        landmarks.append(node)
        # Suppress any node within k-1 hops: a later candidate there would
        # be closer than k hops to this landmark.  The bounded ball is far
        # cheaper than a full flood, so it bypasses the memo.
        reached = hops.graph.bfs_hops([node], within=hops.members, max_hops=k - 1)
        covered.update(reached.keys())
    return landmarks


def assign_voronoi_cells(
    hops: GroupHops, landmarks: Iterable[int]
) -> Dict[int, int]:
    """Associate every group node with its closest landmark.

    Ties (equal hop distance to several landmarks) go to the landmark with
    the smallest ID, the paper's tiebreaker.

    Returns
    -------
    dict mapping every reachable group node to its landmark ID.
    """
    best: Dict[int, Tuple[int, int]] = {}
    for landmark in sorted(int(l) for l in landmarks):
        if landmark not in hops.members:
            raise ValueError(f"landmark {landmark} is not in the group")
        for node, dist in hops.hops_from(landmark).items():
            incumbent = best.get(node)
            if incumbent is None or (dist, landmark) < incumbent:
                best[node] = (dist, landmark)
    return {node: landmark for node, (_, landmark) in best.items()}


def cell_sizes(cells: Dict[int, int]) -> Dict[int, int]:
    """Number of associated nodes per landmark (landmark itself included)."""
    sizes: Dict[int, int] = {}
    for landmark in cells.values():
        sizes[landmark] = sizes.get(landmark, 0) + 1
    return sizes
