"""Boundary-aware geographic routing through the network volume.

The classic consumer of boundary information: greedy geographic
forwarding delivers messages along the straight line to the destination
until it hits a *local minimum* -- typically the rim of a hole, where
every neighbor is farther from the destination than the current node.
2D protocols recover by face routing on a planarized graph; in 3D no such
planarization exists, which is exactly why the paper builds boundary
surfaces.

:class:`GeoRouter` implements greedy forwarding with a boundary-surface
recovery mode: on a local minimum at a boundary node (or adjacent to
one), the packet walks along the *detected boundary subgraph* -- always
moving to the boundary neighbor closest to the destination -- until plain
greedy can resume strictly closer than where it stalled.  The comparison
knob ``recovery`` = ``"none"`` | ``"boundary"`` lets the bench quantify
the delivery-rate gain the detected boundary provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

import numpy as np

from repro.network.graph import NetworkGraph


@dataclass
class GeoRouteResult:
    """Outcome of one geographic routing attempt.

    Attributes
    ----------
    path:
        Node walk from source to destination; empty when undelivered.
    delivered:
        Whether the destination was reached.
    greedy_hops / recovery_hops:
        Hop counts by forwarding mode.
    stalls:
        Number of local minima encountered.
    """

    path: List[int] = field(default_factory=list)
    delivered: bool = False
    greedy_hops: int = 0
    recovery_hops: int = 0
    stalls: int = 0


class GeoRouter:
    """Greedy geographic router with boundary-surface recovery.

    Parameters
    ----------
    graph:
        Full network connectivity (positions are the routing metric).
    boundary:
        The detected boundary node set; required for ``recovery =
        "boundary"``.
    recovery:
        ``"none"`` -- plain greedy, drop on a local minimum;
        ``"boundary"`` -- walk the boundary subgraph until greedy can
        resume closer to the destination.
    """

    def __init__(
        self,
        graph: NetworkGraph,
        boundary: Optional[Set[int]] = None,
        *,
        recovery: str = "boundary",
    ):
        if recovery not in ("none", "boundary"):
            raise ValueError("recovery must be 'none' or 'boundary'")
        if recovery == "boundary" and boundary is None:
            raise ValueError("boundary recovery requires the boundary set")
        self.graph = graph
        self.boundary: Set[int] = set(int(b) for b in boundary) if boundary else set()
        self.recovery = recovery

    def _greedy_next(self, node: int, dst_pos: np.ndarray) -> Optional[int]:
        """Strictly-closer neighbor nearest to the destination, or None."""
        positions = self.graph.positions
        here = float(np.linalg.norm(positions[node] - dst_pos))
        best: Optional[tuple] = None
        for nbr in self.graph.neighbors(node):
            nbr = int(nbr)
            d = float(np.linalg.norm(positions[nbr] - dst_pos))
            if d < here and (best is None or (d, nbr) < best):
                best = (d, nbr)
        return best[1] if best else None

    def _recovery_walk(
        self,
        start: int,
        dst_pos: np.ndarray,
        stall_distance: float,
        visited: Set[int],
        budget: int,
    ) -> Optional[List[int]]:
        """Walk the boundary subgraph until strictly closer than the stall.

        The walk greedily follows the unvisited boundary neighbor closest
        to the destination; it ends successfully at the first node whose
        distance beats ``stall_distance`` (from where plain greedy can
        resume).  Returns the walked segment excluding ``start``, or None
        when the walk dead-ends or exhausts its budget.
        """
        positions = self.graph.positions
        segment: List[int] = []
        current = start
        for _ in range(budget):
            candidates = [
                int(v)
                for v in self.graph.neighbors(current)
                if int(v) in self.boundary and int(v) not in visited
            ]
            if not candidates:
                return None
            nxt = min(
                candidates,
                key=lambda v: (float(np.linalg.norm(positions[v] - dst_pos)), v),
            )
            segment.append(nxt)
            visited.add(nxt)
            current = nxt
            if float(np.linalg.norm(positions[current] - dst_pos)) < stall_distance:
                return segment
        return None

    def route(self, src: int, dst: int, *, max_hops: Optional[int] = None) -> GeoRouteResult:
        """Route from ``src`` to ``dst``; see class docs for the modes."""
        limit = max_hops if max_hops is not None else 4 * self.graph.n_nodes
        positions = self.graph.positions
        dst_pos = positions[dst]
        result = GeoRouteResult(path=[src])
        visited: Set[int] = {src}
        current = src
        hops = 0
        while hops < limit:
            if current == dst:
                result.delivered = True
                return result
            nxt = self._greedy_next(current, dst_pos)
            if nxt is not None:
                result.path.append(nxt)
                result.greedy_hops += 1
                visited.add(nxt)
                current = nxt
                hops += 1
                continue
            # Local minimum.
            result.stalls += 1
            if self.recovery == "none":
                result.path = []
                return result
            # Enter recovery from the stalled node (or a boundary neighbor).
            entry = current
            if entry not in self.boundary:
                gateway = [
                    int(v)
                    for v in self.graph.neighbors(current)
                    if int(v) in self.boundary and int(v) not in visited
                ]
                if not gateway:
                    result.path = []
                    return result
                entry = min(
                    gateway,
                    key=lambda v: (float(np.linalg.norm(positions[v] - dst_pos)), v),
                )
                result.path.append(entry)
                result.recovery_hops += 1
                visited.add(entry)
                hops += 1
            stall_distance = float(np.linalg.norm(positions[current] - dst_pos))
            segment = self._recovery_walk(
                entry, dst_pos, stall_distance, visited, budget=limit - hops
            )
            if segment is None:
                result.path = []
                return result
            result.path.extend(segment)
            result.recovery_hops += len(segment)
            hops += len(segment)
            current = segment[-1]
        if current == dst:
            # Arrived on the final allowed hop.
            result.delivered = True
            return result
        result.path = []
        return result


def delivery_rate(
    router: GeoRouter,
    pairs,
) -> float:
    """Fraction of source/destination pairs the router delivers."""
    pairs = list(pairs)
    if not pairs:
        return 0.0
    delivered = sum(1 for s, d in pairs if router.route(int(s), int(d)).delivered)
    return delivered / len(pairs)
